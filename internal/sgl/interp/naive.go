package interp

import (
	"math"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Naive is the paper's baseline aggregate query evaluator: every aggregate
// and every action target selection is a full O(n) scan of the environment,
// so a tick over n units costs O(n²). It exists both as the experimental
// baseline (Figure 10's "Naive Algorithm" curve) and as the semantics
// oracle the indexed evaluator is differentially tested against.
//
// A semantically checked program cannot fail at evaluation time; if it does,
// that is an internal invariant violation and Naive panics.
type Naive struct {
	prog *sem.Program
	env  *table.Table
	r    rng.TickSource
}

// NewNaive returns a naive provider bound to one tick's environment and
// random source.
func NewNaive(prog *sem.Program, env *table.Table, r rng.TickSource) *Naive {
	return &Naive{prog: prog, env: env, r: r}
}

var _ Provider = (*Naive)(nil)

// EvalAgg scans the environment once, folding every output column of the
// definition in a single pass.
func (p *Naive) EvalAgg(def *ast.AggDef, unit []float64, args []float64) []float64 {
	accs := NewAggAccs(def, p.prog.Schema, unit)
	dl := DefParams(def)
	for _, e := range p.env.Rows {
		ok, err := EvalDefCond(def.Where, dl, unit, args, e, p.prog, p.r)
		if err != nil {
			panic("interp: " + err.Error())
		}
		if !ok {
			continue
		}
		for _, acc := range accs {
			acc.Add(e, func(t ast.Term) float64 {
				v, err := evalDefTerm(t, dl, unit, args, e, p.prog, p.r)
				if err != nil {
					panic("interp: " + err.Error())
				}
				return v
			})
		}
	}
	out := make([]float64, len(accs))
	for i, acc := range accs {
		out[i] = acc.Result()
	}
	return out
}

// SelectTargets scans the environment, visiting each row that satisfies the
// action's WHERE clause.
func (p *Naive) SelectTargets(def *ast.ActDef, unit []float64, args []float64, visit func([]float64)) {
	dl := DefParams(def)
	for _, e := range p.env.Rows {
		ok, err := EvalDefCond(def.Where, dl, unit, args, e, p.prog, p.r)
		if err != nil {
			panic("interp: " + err.Error())
		}
		if ok {
			visit(e)
		}
	}
}

// ---------------------------------------------------------------------------
// Aggregate accumulators (shared by the naive provider and by the indexed
// evaluator's fallback scan path)

// AggAcc folds rows into one aggregate output column.
type AggAcc interface {
	// Add folds one qualifying row; eval evaluates the output's argument
	// term against that row.
	Add(row []float64, eval func(ast.Term) float64)
	// Result returns the final value (the documented empty-set identity if
	// no rows were added).
	Result() float64
}

// NewAggAccs builds one accumulator per output column of the definition,
// for the given probing unit.
func NewAggAccs(def *ast.AggDef, schema *table.Schema, unit []float64) []AggAcc {
	accs := make([]AggAcc, len(def.Outputs))
	for i, out := range def.Outputs {
		accs[i] = newAggAcc(out, schema, unit)
	}
	return accs
}

func newAggAcc(out ast.AggOutput, schema *table.Schema, unit []float64) AggAcc {
	switch out.Func {
	case ast.Count:
		return &countAcc{}
	case ast.Sum:
		return &sumAcc{arg: out.Arg}
	case ast.Avg:
		return &avgAcc{arg: out.Arg}
	case ast.Stddev:
		return &stddevAcc{arg: out.Arg}
	case ast.Min:
		return &extremumAcc{arg: out.Arg, min: true, best: math.Inf(1)}
	case ast.Max:
		return &extremumAcc{arg: out.Arg, min: false, best: math.Inf(-1)}
	case ast.ArgMin:
		return &argExtremumAcc{arg: out.Arg, min: true, best: math.Inf(1), bestKey: NoKey, keyCol: schema.KeyCol()}
	case ast.ArgMax:
		return &argExtremumAcc{arg: out.Arg, min: false, best: math.Inf(-1), bestKey: NoKey, keyCol: schema.KeyCol()}
	case ast.NearestKey, ast.NearestDist, ast.NearestX, ast.NearestY:
		return &nearestAcc{
			want:    out.Func,
			ux:      unit[schema.MustCol("posx")],
			uy:      unit[schema.MustCol("posy")],
			selfKey: int64(unit[schema.KeyCol()]),
			xCol:    schema.MustCol("posx"),
			yCol:    schema.MustCol("posy"),
			keyCol:  schema.KeyCol(),
			best:    math.Inf(1),
			bestKey: NoKey,
		}
	default:
		panic("interp: unknown aggregate function")
	}
}

type countAcc struct{ n float64 }

func (a *countAcc) Add([]float64, func(ast.Term) float64) { a.n++ }
func (a *countAcc) Result() float64                       { return a.n }

type sumAcc struct {
	arg ast.Term
	sum float64
}

func (a *sumAcc) Add(row []float64, eval func(ast.Term) float64) { a.sum += eval(a.arg) }
func (a *sumAcc) Result() float64                                { return a.sum }

type avgAcc struct {
	arg ast.Term
	sum float64
	n   float64
}

func (a *avgAcc) Add(row []float64, eval func(ast.Term) float64) {
	a.sum += eval(a.arg)
	a.n++
}

func (a *avgAcc) Result() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

type stddevAcc struct {
	arg        ast.Term
	sum, sumSq float64
	n          float64
}

func (a *stddevAcc) Add(row []float64, eval func(ast.Term) float64) {
	v := eval(a.arg)
	a.sum += v
	a.sumSq += v * v
	a.n++
}

func (a *stddevAcc) Result() float64 {
	if a.n == 0 {
		return 0
	}
	mean := a.sum / a.n
	variance := a.sumSq/a.n - mean*mean
	if variance < 0 {
		variance = 0 // numerical guard
	}
	return math.Sqrt(variance)
}

type extremumAcc struct {
	arg  ast.Term
	min  bool
	best float64
}

func (a *extremumAcc) Add(row []float64, eval func(ast.Term) float64) {
	v := eval(a.arg)
	if a.min && v < a.best || !a.min && v > a.best {
		a.best = v
	}
}

func (a *extremumAcc) Result() float64 { return a.best }

type argExtremumAcc struct {
	arg     ast.Term
	min     bool
	best    float64
	bestKey int64
	keyCol  int
}

func (a *argExtremumAcc) Add(row []float64, eval func(ast.Term) float64) {
	v := eval(a.arg)
	key := int64(row[a.keyCol])
	better := a.min && v < a.best || !a.min && v > a.best
	if v == a.best && a.bestKey != NoKey && key < a.bestKey {
		better = true // tie-break toward the smaller key for determinism
	}
	if a.bestKey == NoKey || better {
		a.best, a.bestKey = v, key
	}
}

func (a *argExtremumAcc) Result() float64 { return float64(a.bestKey) }

type nearestAcc struct {
	want         ast.AggFunc
	ux, uy       float64
	selfKey      int64
	xCol, yCol   int
	keyCol       int
	best         float64 // squared distance
	bestKey      int64
	bestX, bestY float64
}

func (a *nearestAcc) Add(row []float64, eval func(ast.Term) float64) {
	key := int64(row[a.keyCol])
	if key == a.selfKey {
		return // a unit is never its own nearest neighbour
	}
	dx, dy := row[a.xCol]-a.ux, row[a.yCol]-a.uy
	d := dx*dx + dy*dy
	if a.bestKey == NoKey || d < a.best || (d == a.best && key < a.bestKey) {
		a.best, a.bestKey = d, key
		a.bestX, a.bestY = row[a.xCol], row[a.yCol]
	}
}

func (a *nearestAcc) Result() float64 {
	switch a.want {
	case ast.NearestKey:
		return float64(a.bestKey)
	case ast.NearestX:
		if a.bestKey == NoKey {
			return 0
		}
		return a.bestX
	case ast.NearestY:
		if a.bestKey == NoKey {
			return 0
		}
		return a.bestY
	default: // NearestDist
		if a.bestKey == NoKey {
			return math.Inf(1)
		}
		return math.Sqrt(a.best)
	}
}

// RunTickNaive runs the full formal tick (Eq. 6) with the naive
// provider. Kept as the test oracle every compiled tick is compared with.
func RunTickNaive(prog *sem.Program, env *table.Table, r rng.TickSource) (*table.Table, error) {
	ev := New(prog, env, NewNaive(prog, env, r), r)
	return ev.Tick()
}
