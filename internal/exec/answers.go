// Maintained query answers: the answer half of "answering queries under
// updates" (Berkholz, Keppeler & Schweikardt — see PAPERS.md). Index
// maintenance (maintain.go) keeps the *structures* a probe walks cheap
// to rebuild; this file keeps a specific probe's *result* cheap to keep
// current. For a fixed (definition, probe row, arguments) triple the
// answer is a pure fold over the environment, so a per-tick Delta lets
// three verdicts be decided without rerunning the fold:
//
//   - untouched: no dirty row's changed-column mask intersects the
//     columns the answer reads → the cached values are still exact;
//   - patched: few rows are relevant and every output is divisible
//     (count/sum/avg/stddev) → re-evaluate membership and argument
//     contributions for just the dirty rows, then refold;
//   - rederive: anything else (non-divisible outputs, churn above the
//     caller's threshold, population change) → the caller re-derives
//     through its usual evaluation path.
//
// Exactness. An Answer stores, per environment row, the membership bit
// and each divisible output's argument value — both pure functions of
// the row, the frozen probe row, and the arguments. Values refolds those
// contributions in ascending row order with exactly the accumulator
// operations the naive scan uses, so a patched answer is bit-identical
// to a from-scratch scan of the current environment, not merely close.
package exec

import (
	"fmt"
	"math"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// AnswerPlan classifies one aggregate definition for answer maintenance:
// which environment columns the answer depends on, and whether every
// output is divisible (patchable in place). A plan is immutable and may
// be shared by any number of Answers and goroutines.
type AnswerPlan struct {
	prog *sem.Program
	def  *ast.AggDef
	// read is every e-column the answer is a function of (Analyzer.reads).
	read      depMask
	divisible bool
	// where and argFn are the WHERE clause (nil when absent) and each
	// output's argument (nil where the function takes none), compiled once.
	where expr.Cond
	argFn []expr.Num
}

// NewAnswerPlan builds the maintenance classification for def. The
// column walkers only consult the schema, so no analyzer is needed.
func NewAnswerPlan(prog *sem.Program, def *ast.AggDef) *AnswerPlan {
	an := &Analyzer{prog: prog}
	c := expr.New(prog, expr.Def{Params: def.Params})
	p := &AnswerPlan{prog: prog, def: def, read: an.reads(def).e, divisible: true, argFn: make([]expr.Num, len(def.Outputs))}
	if def.Where != nil {
		p.where = must(c.Cond(def.Where))
	}
	for i, out := range def.Outputs {
		if out.Arg != nil {
			p.argFn[i] = must(c.Num(out.Arg))
		}
		switch out.Func {
		case ast.Count, ast.Sum, ast.Avg, ast.Stddev:
			// divisible: old contributions subtract out / refold exactly.
		default:
			p.divisible = false
		}
	}
	return p
}

// Divisible reports whether every output is a divisible aggregate, the
// precondition for patching the answer in place.
func (p *AnswerPlan) Divisible() bool { return p.divisible }

// Touched reports whether any dirty row's changed columns intersect the
// columns the answer reads. False means the cached answer is still
// exact — the tick provably could not have moved it.
func (p *AnswerPlan) Touched(d Delta) bool {
	for _, m := range d.Masks {
		if depMask(m)&p.read != 0 {
			return true
		}
	}
	return false
}

// RelevantDirty counts the dirty rows whose changed columns intersect
// the answer's read set — the churn measure the caller compares against
// its dirty-fraction threshold.
func (p *AnswerPlan) RelevantDirty(d Delta) int { return relevantDirty(d, p.read) }

// Answer is the maintained state of one evaluation: a frozen probe row
// and argument vector plus, per environment row, the membership bit and
// each output's argument contribution. Not safe for concurrent use; the
// caller serializes Patch/Values against each other.
type Answer struct {
	plan *AnswerPlan
	f    expr.Frame // Unit and Args: private copies of the probe row and arguments

	n       int // population the state covers
	member  []bool
	contrib []float64 // row-major [n][len(outputs)] argument values
}

// NewAnswer evaluates def for (unit, args) over env with a full scan,
// recording the per-row state later Patch calls update. Only divisible
// plans can be maintained; others return an error. r is the tick's
// random source (query mode rejects Random, so it is never consulted,
// but the definition evaluator requires one).
func NewAnswer(plan *AnswerPlan, env *table.Table, unit, args []float64, r rng.TickSource) (*Answer, error) {
	if !plan.divisible {
		return nil, fmt.Errorf("exec: answer for %s has non-divisible outputs; use the provider path", plan.def.Name)
	}
	k := len(plan.def.Outputs)
	a := &Answer{
		plan: plan,
		f:    expr.Frame{Unit: append([]float64(nil), unit...), Args: append([]float64(nil), args...)},
		n:    env.Len(),
	}
	a.member = make([]bool, a.n)
	a.contrib = make([]float64, a.n*k)
	for i, row := range env.Rows {
		a.refresh(i, row, r)
	}
	return a, nil
}

// refresh re-evaluates one row's membership and contributions.
func (a *Answer) refresh(i int, row []float64, r rng.TickSource) {
	f := &a.f
	f.Target, f.R = row, r
	ok := a.plan.where == nil || a.plan.where(f)
	a.member[i] = ok
	if !ok {
		return
	}
	k := len(a.plan.argFn)
	for oi, arg := range a.plan.argFn {
		if arg != nil {
			a.contrib[i*k+oi] = arg(f)
		}
	}
}

// Patch brings the state current after a tick: every dirty row whose
// changed columns intersect the plan's read set is re-evaluated against
// the live environment. Clean rows (and dirty rows that only changed
// irrelevant columns) keep their stored contributions, which is exact
// because contributions are pure functions of the row. The environment
// must have the same population the Answer was built over.
func (a *Answer) Patch(env *table.Table, d Delta, r rng.TickSource) error {
	if env.Len() != a.n {
		return fmt.Errorf("exec: answer built over %d rows patched against %d", a.n, env.Len())
	}
	for j, i := range d.Dirty {
		if depMask(d.Masks[j])&a.plan.read == 0 {
			continue
		}
		a.refresh(i, env.Rows[i], r)
	}
	return nil
}

// Values refolds the stored contributions into the output vector, in
// ascending row order with the scan accumulators' exact operations —
// bit-identical to interp.Naive.EvalAgg over the same environment.
func (a *Answer) Values() []float64 {
	k := len(a.plan.def.Outputs)
	out := make([]float64, k)
	for oi, o := range a.plan.def.Outputs {
		var n, sum, sumSq float64
		for i := 0; i < a.n; i++ {
			if !a.member[i] {
				continue
			}
			n++
			v := a.contrib[i*k+oi]
			sum += v
			sumSq += v * v
		}
		switch o.Func {
		case ast.Count:
			out[oi] = n
		case ast.Sum:
			out[oi] = sum
		case ast.Avg:
			if n == 0 {
				out[oi] = 0
			} else {
				out[oi] = sum / n
			}
		case ast.Stddev:
			if n == 0 {
				out[oi] = 0
			} else {
				mean := sum / n
				variance := sumSq/n - mean*mean
				if variance < 0 {
					variance = 0 // numerical guard, mirroring stddevAcc
				}
				out[oi] = math.Sqrt(variance)
			}
		}
	}
	return out
}
