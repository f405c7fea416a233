// Package exec implements the indexed aggregate query evaluator of paper
// Section 5.3. It serves both engine modes: the Naive mode's analyzer
// (NewScanAnalyzer) classifies every definition as a scan. The naive
// tree walker in sgl/interp is its independent oracle.
//
// A one-time analysis pass classifies every aggregate and action definition
// by inspecting the conjuncts of its WHERE clause (the paper assumes φ is
// conjunctive; anything else falls back to a scan, preserving semantics):
//
//   - join range conjuncts  e.A ≥ t(u) / e.A ≤ t(u): an orthogonal range
//     on attribute A whose bounds depend on the probing unit;
//   - join equality/inequality conjuncts  e.A = t(u) / e.A ≠ t(u) on a
//     categorical attribute: handled by partitioning E on A and probing
//     the matching (or complementary) partitions — the paper's "push
//     selection on player and/or unit type to the top";
//   - e-only conjuncts (no u, no parameters): folded into the partition
//     filter at index build time;
//   - u-only conjuncts: evaluated once per probe; a false value yields the
//     empty-set identities without touching any index;
//   - anything else: residual → the definition is evaluated by scanning.
//
// Outputs are then classified individually: divisible aggregates (count,
// sum, avg, stddev) over ≤2-attribute orthogonal ranges use the layered
// range tree with prefix aggregates; min/max/argmin/argmax use the
// sweep line (batch) or a per-partition scan (single probe); nearest-
// neighbour outputs use the kD-tree; and min/max with no range conjuncts
// at all use a precomputed per-partition global extremum.
package exec

import (
	"slices"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// OutputClass says how one aggregate output column is evaluated by the
// indexed provider.
type OutputClass uint8

// Output classes.
const (
	ClassScan      OutputClass = iota // fallback: O(n) scan per probe
	ClassDivisible                    // layered range tree prefix aggregates
	ClassMinMax                       // sweepline (batch) / partition scan
	ClassNearest                      // kD-tree nearest neighbour
	ClassGlobal                       // per-partition precomputed extremum
)

func (c OutputClass) String() string {
	return [...]string{"scan", "divisible", "minmax", "nearest", "global"}[c]
}

// Bound is one side of an orthogonal range conjunct on an e-attribute:
// e.Attr ≥ Term (lower) or e.Attr ≤ Term (upper), with Term over u,
// parameters and constants only.
type Bound struct {
	Col   int // schema column of the e-attribute
	Lower bool
	Term  ast.Term
}

// EqCond is a join (in)equality conjunct e.Attr = Term or e.Attr ≠ Term
// with Term over u/params/consts. Fn is Term compiled.
type EqCond struct {
	Col  int
	Neq  bool
	Term ast.Term
	Fn   expr.Num
}

// RangeAxis pairs the bounds of one range attribute. LoFn and HiFn are
// the bound terms compiled (nil exactly where the term is).
type RangeAxis struct {
	Col        int
	Lo, Hi     ast.Term // nil = unbounded on that side
	LoFn, HiFn expr.Num
}

// AggAnalysis is the classification of one aggregate definition.
type AggAnalysis struct {
	Def      *ast.AggDef
	UOnly    []ast.Cond  // conjuncts over u/params/consts only
	EOnly    []ast.Cond  // conjuncts over e/consts only (partition filter)
	Eqs      []EqCond    // categorical join conjuncts
	Axes     []RangeAxis // orthogonal range join conjuncts, ≤2 for indexing
	Residual []ast.Cond  // unclassifiable conjuncts (forces scans)
	OutClass []OutputClass
	// Indexable is false when residual conjuncts or >2 range axes force
	// every output to a scan.
	Indexable bool

	// Compiled forms, built once by NewAnalyzer: the whole WHERE clause
	// (nil when the definition has none), the u-only and e-only conjuncts
	// parallel to UOnly and EOnly, and each output's argument (nil where
	// the function takes none).
	Where   expr.Cond
	UOnlyFn []expr.Cond
	EOnlyFn []expr.Cond
	ArgFn   []expr.Num

	// ProbeInvariant marks a definition whose answer depends on the
	// probing unit only through which partitions its categorical
	// equalities select: no range axes, no u-only conjuncts, no
	// parameters, and every output served from per-partition state
	// (divisible payloads, global extrema). Every probe matching the same
	// partition set gets the same answer, so a provider computes it once.
	ProbeInvariant bool

	// Where the answers come from, fixed by NewAnalyzer (membership.go):
	// the membership group whose partitions serve the definition, the
	// group slots its per-probe outputs read, its surface (-1 without
	// range axes), the slot its divisible outputs sum (the surface's tree
	// or, without axes, the group's fold; -1 when none is divisible) and
	// the slot of its MIN/MAX sweep orderings (-1 when none). Per output:
	// the payload columns of a divisible output, the group extremum of a
	// global one.
	group   *membership
	need    slotMask
	surf    int
	divSlot int
	sweep   int
	div     []divCols // unused entries are -1s
	ext     []int     // -1 where unused

	// reads is what an answer depends on besides its arguments (reads):
	// what Carries tests the tick's changes against.
	reads readSet

	// cert numbers the definitions whose answers certify (certify.go):
	// indexable, no Random, no parameter but the unit, every output a
	// nearest one. -1 for the rest.
	cert int
}

// depMask is a bitset over schema columns, built from ColBit.
type depMask uint64

// ColBit is column col's bit in a column mask — a Delta's changed-column
// masks and every read set they are tested against. Columns ≥ 63 alias
// into bit 63, which is conservative: an aliased change can only force
// an extra rebuild or rederivation, never skip a needed one.
func ColBit(col int) uint64 {
	return 1 << min(col, 63)
}

// ActClass says how an action's target set is computed.
type ActClass uint8

// Action classes.
const (
	ActScan  ActClass = iota // scan all rows
	ActByKey                 // e.key = t(u): direct key lookup
	ActArea                  // categorical eqs + orthogonal range: spatial index
)

func (c ActClass) String() string { return [...]string{"scan", "bykey", "area"}[c] }

// ActAnalysis is the classification of one action definition.
type ActAnalysis struct {
	Def      *ast.ActDef
	Class    ActClass
	KeyTerm  ast.Term // ActByKey: the right-hand side of e.key = t
	UOnly    []ast.Cond
	EOnly    []ast.Cond
	Eqs      []EqCond
	Axes     []RangeAxis
	Residual []ast.Cond
	// Deferrable reports the Section 5.4 condition: an ActArea whose SET
	// values do not reference e, so the per-performer contribution can be
	// computed once and applied to all targets through an effect index.
	Deferrable bool

	// Compiled forms, built once by NewAnalyzer: the whole WHERE clause
	// (nil when the definition has none), KeyTerm, the u-only and e-only
	// conjuncts, and the SET clauses as (schema column, value) pairs in
	// declaration order.
	Where   expr.Cond
	KeyFn   expr.Num
	UOnlyFn []expr.Cond
	EOnlyFn []expr.Cond
	SetCols []int
	SetFn   []expr.Num

	// An ActArea's index, fixed by NewAnalyzer: its membership group, the
	// surface it reports targets from and that surface's tree slot.
	group *membership
	surf  int
	need  slotMask
}

// Analyzer holds, per definition of a program, everything that is fixed
// for the program's lifetime: the index-usability classification and the
// definition's terms and conditions compiled to closures (package expr) —
// WHERE conjuncts, axis bounds, equality right-hand sides, output
// arguments, SET values. Providers and the engine evaluate those closures
// per probe; nothing walks the AST or resolves a name after NewAnalyzer.
// The closures read game constants through the program's cells at call
// time, so an analyzer stays valid across OpTune. After NewAnalyzer
// returns, an Analyzer is immutable and safe for concurrent use.
type Analyzer struct {
	prog *sem.Program
	// aggs and acts hold the analyses, a program definition's at its Ord:
	// a lookup is one bounds check and one pointer compare. A definition
	// from outside the program is analyzed on first use and appended.
	aggs []*AggAnalysis
	acts []*ActAnalysis
	// Categorical is the set of schema columns eligible for equality
	// partitioning (the paper's player and unit type).
	categorical map[int]bool
	// posX and posY are the schema's position columns (-1 when absent):
	// what nearest-neighbour outputs measure between.
	posX, posY int
	// groups are the membership groups of the indexable definitions, by
	// ordinal, in order of their first definition.
	groups []*membership
	// scan classifies every definition as a scan (NewScanAnalyzer).
	scan bool
	// certs counts the definitions with a certificate ordinal.
	certs int
}

// NewAnalyzer builds an analyzer. categoricalAttrs names the low-volatility
// attributes used for partitioning (e.g. "player", "unittype"); names not
// in the schema are ignored.
//
// Every definition of the program is classified and compiled eagerly
// here, so the memo maps are never written after construction: Agg and
// Act are read-only and safe to call from concurrent shard workers.
// (Both are per-program, not per-tick, so the eager cost is paid exactly
// once.) A semantically checked program always compiles; anything else is
// an internal invariant violation and panics.
func NewAnalyzer(prog *sem.Program, categoricalAttrs []string) *Analyzer {
	return newAnalyzer(prog, categoricalAttrs, false)
}

// NewScanAnalyzer builds the Naive mode's analyzer: every aggregate is
// non-indexable and every action an ActScan, so a provider over it
// answers every probe with one compiled pass over all rows and keys,
// partitions and defers nothing — Figure 10's O(n)-scan side, on the
// same executor as the indexed one.
func NewScanAnalyzer(prog *sem.Program) *Analyzer {
	return newAnalyzer(prog, nil, true)
}

func newAnalyzer(prog *sem.Program, categoricalAttrs []string, scan bool) *Analyzer {
	cat := map[int]bool{}
	for _, name := range categoricalAttrs {
		if col, ok := prog.Schema.Col(name); ok {
			cat[col] = true
		}
	}
	an := &Analyzer{
		prog:        prog,
		categorical: cat,
		posX:        -1,
		posY:        -1,
		scan:        scan,
	}
	if c, ok := prog.Schema.Col("posx"); ok {
		an.posX = c
	}
	if c, ok := prog.Schema.Col("posy"); ok {
		an.posY = c
	}
	for _, def := range prog.Script.Aggs {
		an.Agg(def)
	}
	for _, def := range prog.Script.Acts {
		an.Act(def)
	}
	return an
}

// Agg returns the (cached) classification of an aggregate definition.
func (an *Analyzer) Agg(def *ast.AggDef) *AggAnalysis {
	if o := def.Ord; o >= 0 && o < len(an.aggs) && an.aggs[o].Def == def {
		return an.aggs[o]
	}
	for _, a := range an.aggs {
		if a.Def == def {
			return a
		}
	}
	a := an.analyzeAgg(def)
	an.aggs = append(an.aggs, a)
	return a
}

// Act returns the (cached) classification of an action definition.
func (an *Analyzer) Act(def *ast.ActDef) *ActAnalysis {
	if o := def.Ord; o >= 0 && o < len(an.acts) && an.acts[o].Def == def {
		return an.acts[o]
	}
	for _, a := range an.acts {
		if a.Def == def {
			return a
		}
	}
	a := an.analyzeAct(def)
	an.acts = append(an.acts, a)
	return a
}

// refKind classifies which row variables a term or condition mentions.
type refKind struct {
	usesU, usesE, usesParam, usesRandom bool
}

// refs reports which row variables n, a term or a condition, mentions.
func (an *Analyzer) refs(n any, unitName string, params []string) refKind {
	var r refKind
	ast.Inspect(n, func(x any) bool {
		switch n := x.(type) {
		case *ast.VarRef:
			r.usesParam = r.usesParam || slices.Contains(params[1:], n.Name)
		case *ast.FieldRef:
			if n.Base == "e" {
				r.usesE = true
			} else if n.Base == unitName {
				r.usesU = true
			}
		case *ast.Call:
			r.usesRandom = r.usesRandom || n.Name == "Random" || n.Name == "random"
		}
		return true
	})
	return r
}

// bareEAttr returns the column if t is exactly e.Attr.
func (an *Analyzer) bareEAttr(t ast.Term) (int, bool) {
	fr, ok := t.(*ast.FieldRef)
	if !ok || fr.Base != "e" {
		return 0, false
	}
	col, ok := an.prog.Schema.Col(fr.Field)
	return col, ok
}

// classifyConjunct sorts one conjunct into the analysis buckets shared by
// aggregates and actions. Returns false if the conjunct is residual.
func (an *Analyzer) classifyConjunct(
	c ast.Cond, unitName string, params []string,
	uOnly, eOnly *[]ast.Cond, eqs *[]EqCond, bounds *[]Bound,
) bool {
	refs := an.refs(c, unitName, params)
	if refs.usesRandom {
		return false // nondeterministic predicates are never indexed
	}
	if !refs.usesE {
		*uOnly = append(*uOnly, c)
		return true
	}
	if !refs.usesU && !refs.usesParam {
		*eOnly = append(*eOnly, c)
		return true
	}

	// Mixed conjunct: must be a comparison with a bare e-attribute on one
	// side and a u/param/const term on the other.
	cmp, ok := c.(*ast.Compare)
	if !ok {
		return false
	}
	lhsCol, lhsIsE := an.bareEAttr(cmp.X)
	rhsCol, rhsIsE := an.bareEAttr(cmp.Y)
	var col int
	var op ast.CmpOp
	var other ast.Term
	switch {
	case lhsIsE && !an.refs(cmp.Y, unitName, params).usesE:
		col, op, other = lhsCol, cmp.Op, cmp.Y
	case rhsIsE && !an.refs(cmp.X, unitName, params).usesE:
		// Mirror: t op e.A  ⇒  e.A op' t.
		col, other = rhsCol, cmp.X
		switch cmp.Op {
		case ast.Lt:
			op = ast.Gt
		case ast.Le:
			op = ast.Ge
		case ast.Gt:
			op = ast.Lt
		case ast.Ge:
			op = ast.Le
		default:
			op = cmp.Op
		}
	default:
		return false
	}

	switch op {
	case ast.Eq:
		*eqs = append(*eqs, EqCond{Col: col, Term: other})
	case ast.Ne:
		*eqs = append(*eqs, EqCond{Col: col, Neq: true, Term: other})
	case ast.Ge:
		*bounds = append(*bounds, Bound{Col: col, Lower: true, Term: other})
	case ast.Le:
		*bounds = append(*bounds, Bound{Col: col, Lower: false, Term: other})
	case ast.Gt, ast.Lt:
		// Strict bounds are not produced by the range idiom the games use
		// (the paper's aggregates are all ≥/≤); treat as residual rather
		// than risk off-by-epsilon index probes.
		return false
	}
	return true
}

func groupAxes(bounds []Bound) []RangeAxis {
	var axes []RangeAxis
	find := func(col int) *RangeAxis {
		for i := range axes {
			if axes[i].Col == col {
				return &axes[i]
			}
		}
		axes = append(axes, RangeAxis{Col: col})
		return &axes[len(axes)-1]
	}
	for _, b := range bounds {
		ax := find(b.Col)
		if b.Lower {
			ax.Lo = b.Term
		} else {
			ax.Hi = b.Term
		}
	}
	return axes
}

func (an *Analyzer) analyzeAgg(def *ast.AggDef) *AggAnalysis {
	a := &AggAnalysis{Def: def, Indexable: !an.scan, reads: an.reads(def)}
	var bounds []Bound
	if def.Where != nil {
		for _, c := range ast.Conjuncts(def.Where) {
			if !an.classifyConjunct(c, def.Params[0], def.Params, &a.UOnly, &a.EOnly, &a.Eqs, &bounds) {
				a.Residual = append(a.Residual, c)
			}
		}
	}
	a.Axes = groupAxes(bounds)

	// Equality partitioning requires categorical attributes.
	for _, eq := range a.Eqs {
		if !an.categorical[eq.Col] {
			a.Indexable = false
		}
	}
	if len(a.Residual) > 0 || len(a.Axes) > 2 {
		a.Indexable = false
	}

	a.OutClass = make([]OutputClass, len(def.Outputs))
	for i, out := range def.Outputs {
		a.OutClass[i] = an.classifyOutput(a, out)
	}
	an.compileAgg(a)
	an.layoutAgg(a)
	a.cert = -1
	if a.Indexable && !a.reads.random && len(def.Params) == 1 && len(def.Outputs) > 0 &&
		!slices.ContainsFunc(a.OutClass, func(c OutputClass) bool { return c != ClassNearest }) {
		a.cert = an.certs
		an.certs++
	}
	return a
}

// layoutAgg places an indexable definition in its membership group and
// fixes which of the group's structures its outputs read: the payload
// columns of its divisible outputs (in its surface's tree, or in the
// group's fold without axes), the kD-tree, the extrema, the sweep
// orderings.
func (an *Analyzer) layoutAgg(a *AggAnalysis) {
	a.ProbeInvariant = a.Indexable && len(a.Axes) == 0 && len(a.UOnly) == 0 && len(a.Def.Params) == 1
	a.surf, a.divSlot, a.sweep = -1, -1, -1
	a.div = make([]divCols, len(a.Def.Outputs))
	a.ext = make([]int, len(a.Def.Outputs))
	for i := range a.Def.Outputs {
		a.div[i] = divCols{cnt: -1, sum: -1, sumSq: -1}
		a.ext[i] = -1
	}
	if !a.Indexable {
		return
	}
	g := an.membershipOf(a.EOnly, a.EOnlyFn, a.Eqs)
	a.group = g
	if len(a.Axes) > 0 {
		a.surf = g.surfaceAt(axisCols(a.Axes))
	}
	for i, out := range a.Def.Outputs {
		switch a.OutClass[i] {
		case ClassDivisible:
			spec := g.payload(a.surf)
			if a.surf >= 0 {
				a.divSlot = g.addSlot(&g.trees[a.surf].slot)
			} else {
				a.divSlot = g.addSlot(&g.fold.slot)
			}
			a.need |= slotBit(a.divSlot)
			count := func() int { return spec.col("1", nil, false, 0) }
			arg := func(squared bool) int {
				return spec.col(exactForm(out.Arg), a.ArgFn[i], squared, an.cols(out.Arg, "e"))
			}
			switch out.Func {
			case ast.Count:
				a.div[i].cnt = count()
			case ast.Sum:
				a.div[i].sum = arg(false)
			case ast.Avg:
				a.div[i].cnt, a.div[i].sum = count(), arg(false)
			case ast.Stddev:
				a.div[i].cnt, a.div[i].sum, a.div[i].sumSq = count(), arg(false), arg(true)
			}
		case ClassNearest:
			a.need |= slotBit(g.kdSlot(an.posX, an.posY))
			a.ProbeInvariant = false
		case ClassGlobal:
			isMin := out.Func == ast.Min || out.Func == ast.ArgMin
			a.ext[i] = g.extremumFor(isMin, exactForm(out.Arg), a.ArgFn[i], an.cols(out.Arg, "e"))
			a.need |= slotBit(g.ext.slot)
		case ClassMinMax:
			a.sweep = g.addSlot(&g.sweeps[a.surf].slot)
			a.ProbeInvariant = false
		default:
			a.ProbeInvariant = false
		}
	}
	g.needs = append(g.needs, a.need|slotBit(a.sweep))
}

// must unwraps a compile result. Definitions of a checked program always
// compile (sem admits nothing the compiler rejects), so a failure here is
// a bug, not an input error.
func must[T any](v T, err error) T {
	if err != nil {
		panic("exec: " + err.Error())
	}
	return v
}

// compileDef compiles the parts shared by aggregate and action
// definitions: the WHERE clause, its classified conjuncts, and the
// probe-time terms of the equality and range conjuncts.
func compileDef(c *expr.Compiler, where ast.Cond, uOnly, eOnly []ast.Cond, eqs []EqCond, axes []RangeAxis) (whereFn expr.Cond, uFn, eFn []expr.Cond) {
	if where != nil {
		whereFn = must(c.Cond(where))
	}
	for i := range eqs {
		eqs[i].Fn = must(c.Num(eqs[i].Term))
	}
	for i := range axes {
		if axes[i].Lo != nil {
			axes[i].LoFn = must(c.Num(axes[i].Lo))
		}
		if axes[i].Hi != nil {
			axes[i].HiFn = must(c.Num(axes[i].Hi))
		}
	}
	return whereFn, must(c.Conds(uOnly)), must(c.Conds(eOnly))
}

func (an *Analyzer) compileAgg(a *AggAnalysis) {
	c := expr.New(an.prog, expr.Def{Params: a.Def.Params})
	a.Where, a.UOnlyFn, a.EOnlyFn = compileDef(c, a.Def.Where, a.UOnly, a.EOnly, a.Eqs, a.Axes)
	a.ArgFn = make([]expr.Num, len(a.Def.Outputs))
	for i, out := range a.Def.Outputs {
		if out.Arg != nil {
			a.ArgFn[i] = must(c.Num(out.Arg))
		}
	}
}

func (an *Analyzer) compileAct(a *ActAnalysis) {
	c := expr.New(an.prog, expr.Def{Params: a.Def.Params})
	a.Where, a.UOnlyFn, a.EOnlyFn = compileDef(c, a.Def.Where, a.UOnly, a.EOnly, a.Eqs, a.Axes)
	if a.KeyTerm != nil {
		a.KeyFn = must(c.Num(a.KeyTerm))
	}
	for _, set := range a.Def.Sets {
		a.SetCols = append(a.SetCols, an.prog.Schema.MustCol(set.Attr))
		a.SetFn = append(a.SetFn, must(c.Num(set.Value)))
	}
}

// readSet is what an aggregate's answer is a function of, besides its
// arguments and the game constants: the e-columns of the rows it folds,
// the probing unit's columns, and whether it draws Random.
type readSet struct {
	e, u   depMask
	random bool
}

// reads walks def once for its read set. The e-columns are the WHERE
// clause's and the output arguments' e.* references, the key column for
// outputs that report a row's identity, and the position columns for
// nearest outputs (which measure from posx/posy). The unit columns are
// every u.* in the WHERE clause and the output arguments, plus the key and
// position columns a nearest probe reads off the unit.
func (an *Analyzer) reads(def *ast.AggDef) readSet {
	s := an.prog.Schema
	unit := def.Params[0]
	var r readSet
	if def.Where != nil {
		r.e, r.u = an.cols(def.Where, "e"), an.cols(def.Where, unit)
		r.random = an.refs(def.Where, unit, def.Params).usesRandom
	}
	var pos depMask
	for _, name := range []string{"posx", "posy"} {
		if c, ok := s.Col(name); ok {
			pos |= depMask(ColBit(c))
		}
	}
	key := depMask(ColBit(s.KeyCol()))
	r.u |= key | pos
	for _, out := range def.Outputs {
		if out.Arg != nil {
			r.e |= an.cols(out.Arg, "e")
			r.u |= an.cols(out.Arg, unit)
			r.random = r.random || an.refs(out.Arg, unit, def.Params).usesRandom
		}
		switch out.Func {
		case ast.ArgMin, ast.ArgMax:
			r.e |= key
		case ast.NearestKey, ast.NearestDist, ast.NearestX, ast.NearestY:
			r.e |= key | pos
		}
	}
	return r
}

// cols collects the schema columns of every base.Attr reference in n, a
// term or a condition.
func (an *Analyzer) cols(n any, base string) depMask {
	var m depMask
	ast.Inspect(n, func(x any) bool {
		if fr, ok := x.(*ast.FieldRef); ok && fr.Base == base {
			if col, ok := an.prog.Schema.Col(fr.Field); ok {
				m |= depMask(ColBit(col))
			}
		}
		return true
	})
	return m
}

func (an *Analyzer) classifyOutput(a *AggAnalysis, out ast.AggOutput) OutputClass {
	if !a.Indexable {
		return ClassScan
	}
	// Output arguments may only reference e and constants if they are to
	// be precomputed into index payloads.
	if out.Arg != nil {
		refs := an.refs(out.Arg, a.Def.Params[0], a.Def.Params)
		if refs.usesU || refs.usesParam || refs.usesRandom {
			return ClassScan
		}
	}
	switch out.Func {
	case ast.Count, ast.Sum, ast.Avg, ast.Stddev:
		return ClassDivisible
	case ast.Min, ast.Max, ast.ArgMin, ast.ArgMax:
		if len(a.Axes) == 0 {
			return ClassGlobal
		}
		// The sweep line needs a fully bounded window on every present
		// axis; a one-sided range falls back to the partition scan.
		for _, ax := range a.Axes {
			if ax.Lo == nil || ax.Hi == nil {
				return ClassScan
			}
		}
		return ClassMinMax
	case ast.NearestKey, ast.NearestDist, ast.NearestX, ast.NearestY:
		// The kD-tree answers pure nearest-neighbour queries; a range-
		// restricted nearest (square visibility window) is not the same
		// as a radius-bounded NN, so it falls back to a scan.
		if len(a.Axes) == 0 {
			return ClassNearest
		}
		return ClassScan
	default:
		return ClassScan
	}
}

func (an *Analyzer) analyzeAct(def *ast.ActDef) *ActAnalysis {
	a := an.classifyAct(def)
	an.compileAct(a)
	if a.Class == ActArea {
		// An area action reports its targets off a range tree over its
		// membership and axes — the tree of that surface in its group,
		// shared with every aggregate summing over the same.
		a.group = an.membershipOf(a.EOnly, a.EOnlyFn, a.Eqs)
		a.surf = a.group.surfaceAt(axisCols(a.Axes))
		a.need = slotBit(a.group.addSlot(&a.group.trees[a.surf].slot))
		a.group.needs = append(a.group.needs, a.need)
	}
	return a
}

func (an *Analyzer) classifyAct(def *ast.ActDef) *ActAnalysis {
	a := &ActAnalysis{Def: def}
	var bounds []Bound
	if def.Where != nil {
		for _, c := range ast.Conjuncts(def.Where) {
			if !an.classifyConjunct(c, def.Params[0], def.Params, &a.UOnly, &a.EOnly, &a.Eqs, &bounds) {
				a.Residual = append(a.Residual, c)
			}
		}
	}
	a.Axes = groupAxes(bounds)
	if an.scan {
		a.Class = ActScan
		return a
	}

	// Any conjunct of the form e.key = t makes the action a point lookup:
	// the remaining conjuncts (whatever their shape — the d20 scripts put
	// the attack-roll-vs-AC check here) are verified on the single
	// candidate row, which costs O(1).
	keyCol := an.prog.Schema.KeyCol()
	for _, eq := range a.Eqs {
		if eq.Col == keyCol && !eq.Neq {
			a.Class = ActByKey
			a.KeyTerm = eq.Term
			return a
		}
	}

	catsOK := true
	for _, eq := range a.Eqs {
		if !an.categorical[eq.Col] {
			catsOK = false
		}
	}
	if len(a.Residual) == 0 && catsOK && len(a.Axes) >= 1 && len(a.Axes) <= 2 {
		a.Class = ActArea
		a.Deferrable = true
		for _, set := range def.Sets {
			refs := an.refs(set.Value, def.Params[0], def.Params)
			// A deferrable contribution must be a pure function of the
			// performer: Random(i) is attributed to the *target* row, so
			// its presence pins the action to the per-target path.
			if refs.usesE || refs.usesRandom {
				a.Deferrable = false
			}
		}
		return a
	}
	a.Class = ActScan
	return a
}
