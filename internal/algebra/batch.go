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

// UnitsOf exposes memoized unit-set evaluation for external plan walkers
// (the engine's decision phase walks Apply nodes itself to defer area
// effects, Section 5.4). It always uses the materializing path; walkers
// on the hot path should prefer EachUnit, which streams.
func (x *Executor) UnitsOf(n Node) ([]*Row, error) {
	if x.codeErr != nil {
		return nil, x.codeErr
	}
	return x.units(n)
}

// EachUnit invokes yield for every row of unit-set node n, in base-row
// order — the serial effect fold order. By default rows stream through
// the compiled pipeline of stream.go; after SetMaterialize(true) they
// come from the memoized units() slices instead. The two paths yield the
// same rows, in the same order, with the same extension values.
func (x *Executor) EachUnit(n Node, yield func(*Row) error) error {
	if x.codeErr != nil {
		return x.codeErr
	}
	if x.materialize {
		rows, err := x.units(n)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if err := yield(row); err != nil {
				return err
			}
		}
		return nil
	}
	return x.streamUnits(n, yield)
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
	act := code.acts[def]
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
	if x.batcher == nil {
		return false
	}
	for _, s := range code.sites {
		if x.batcher.BatchBeneficial(s.def) {
			return true
		}
	}
	return false
}

// batchExtend pre-evaluates every aggregate call in an Extend's value term
// for all rows at once, recording per-(site, row) results that probe then
// consumes. Sites are visited inner first, so a batched outer call reads
// the recorded results of the calls inside its arguments rather than
// going back to the provider.
func (x *Executor) batchExtend(code *extCode, rows []*Row) {
	if x.batcher == nil || len(code.sites) == 0 {
		return
	}
	if len(x.batch) < x.code.sites {
		x.batch = append(x.batch, make([]siteResults, x.code.sites-len(x.batch))...)
	}
	n := len(x.baseRows())
	for _, s := range code.sites {
		units := make([][]float64, len(rows))
		var args [][]float64
		if len(s.args) > 0 {
			args = make([][]float64, len(rows))
		}
		for i, row := range rows {
			units[i] = row.Unit
			if args != nil {
				f := x.at(row)
				vals := make([]float64, len(s.args))
				for j, a := range s.args {
					vals[j] = a(f)
				}
				args[i] = vals
			}
		}
		results := x.batcher.EvalAggBatch(s.def, units, args)
		// Merge rather than replace: the streaming pipelines may batch the
		// same site for different row subsets (two Apply chains sharing the
		// Extend reach it with different survivor sets), and earlier rows'
		// results must stay visible to probe.
		b := &x.batch[s.id]
		w := len(s.def.Outputs)
		if len(b.vals) != n*w {
			b.vals = make([]float64, n*w)
		}
		if len(b.have) != (n+63)/64 {
			b.have = make([]uint64, (n+63)/64)
		}
		for i, row := range rows {
			ord := int(row.ord)
			copy(b.vals[ord*w:(ord+1)*w], results[i])
			b.have[ord>>6] |= 1 << uint(ord&63)
		}
	}
}
