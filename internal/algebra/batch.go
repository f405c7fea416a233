package algebra

import (
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
)

// BatchAggProvider is implemented by providers that can answer the same
// aggregate for many units at once — required for the sweep-line MIN/MAX
// technique, which is inherently set-at-a-time: the whole probe set is
// sorted and answered in one pass (paper Section 5.3.1).
type BatchAggProvider interface {
	interp.Provider
	// EvalAggBatch evaluates def for every unit; args[i] are the parameter
	// values for units[i] (nil when the definition has no parameters).
	EvalAggBatch(def *ast.AggDef, units [][]float64, args [][]float64) [][]float64
	// BatchBeneficial reports whether EvalAggBatch answers def with a
	// genuinely set-at-a-time algorithm (the MIN/MAX sweep line) rather
	// than looping the per-probe evaluator. The streaming executor only
	// blocks its pipeline — collecting the surviving rows before the
	// probe — for definitions where this is true; everything else streams
	// one probe per row with bit-identical results.
	BatchBeneficial(def *ast.AggDef) bool
}

// ApplyArgs evaluates an Apply node's argument terms for one row,
// appending them to dst (pass nil for a slice safe to retain). It is
// valid for rows EachUnit yields.
func (x *Executor) ApplyArgs(dst []float64, a *Apply, row *Row) []float64 {
	f := x.at(row)
	for _, arg := range x.code.apply[a] {
		dst = append(dst, arg(f))
	}
	return dst
}

// BuildEffectRow materializes the effect row an action produces for one
// target: const columns from the target, SET columns evaluated, all other
// effect columns at their fold identities so ⊕ ignores them. It writes
// into dst when dst has the schema's width and allocates otherwise.
func (x *Executor) BuildEffectRow(dst []float64, def *ast.ActDef, unit, args, target []float64) []float64 {
	code := x.code
	if len(dst) != len(code.effect) {
		dst = make([]float64, len(code.effect))
	}
	copy(dst, code.effect)
	for _, c := range x.prog.Schema.ConstCols() {
		dst[c] = target[c]
	}
	f := &x.def
	f.Unit, f.Args, f.Target = unit, args, target
	act := code.act(def)
	for i, set := range act.sets {
		dst[act.cols[i]] = set(f)
	}
	return dst
}

// extendBlocking reports whether an Extend's value contains an aggregate
// call whose batch evaluation is genuinely set-at-a-time (the MIN/MAX
// sweep line). Everything else evaluates per row with identical results
// — for non-MinMax classes EvalAggBatch is literally a loop over the
// per-probe evaluator.
func (x *Executor) extendBlocking(code *extCode) bool {
	for _, s := range code.sites {
		if x.memo[s.class.id].batch {
			return true
		}
	}
	return false
}

// batchExtend answers every set-at-a-time call in an Extend's value term
// at once for the rows its class memo does not hold yet and whose answer
// does not carry (carried), into that memo, where probe then finds them.
// Sites are visited inner first, so a batched outer call reads the
// memoized results of the batched calls inside its arguments rather than
// going back to the provider. The probe set lives in executor scratch;
// only the provider's result block is allocated per batch.
func (x *Executor) batchExtend(code *extCode, rows []*Row) {
	for _, s := range code.sites {
		m := &x.memo[s.class.id]
		if !m.batch {
			continue
		}
		units, vals := x.batchUnits[:0], x.batchVals[:0]
		for _, row := range rows {
			ord := int(row.ord)
			if m.has(ord) {
				continue // an earlier site or batch of the class answered it
			}
			k := len(vals)
			if len(s.args) > 0 {
				f := x.at(row)
				for _, a := range s.args {
					vals = append(vals, a(f))
				}
			}
			if x.carried(m, s.class.def, ord, vals[k:]) {
				vals = vals[:k]
				m.set(ord)
				continue
			}
			units = append(units, row.Unit)
		}
		x.batchUnits, x.batchVals = units, vals
		if len(units) == 0 {
			continue
		}
		var args [][]float64
		if k := len(s.args); k > 0 {
			args = x.batchArgs[:0]
			for i := range units {
				args = append(args, vals[i*k:(i+1)*k:(i+1)*k])
			}
			x.batchArgs = args
		}
		results := x.batcher.EvalAggBatch(s.class.def, units, args)
		w := len(s.class.def.Outputs)
		i := 0
		for _, row := range rows {
			ord := int(row.ord)
			if m.has(ord) {
				continue
			}
			copy(m.vals[ord*w:(ord+1)*w], results[i])
			i++
		}
		for _, row := range rows {
			m.set(int(row.ord))
		}
	}
}
