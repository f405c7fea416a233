// Streaming plan execution: the classical σ/π/⋈/γ operators composed as
// pull-based per-row pipelines.
//
// The executor compiles each Apply node's input chain (Base → Select* →
// Extend* in some interleaving) into a pipeline of per-row stages and
// walks the base shard once, pushing every row through all stages and
// yielding the survivors one at a time; no unit set is ever materialized.
// Row storage is flat and shared: one []Row backing array, one
// []interp.Value extension backing array, one done bitset — a constant
// number of allocations per executor, not per row.
//
// Three things make this byte-identical to the node-at-a-time semantics
// of the plan (and so to the interpreter, sgl/interp, which the
// differential tests hold it to):
//
//   - Order. Rows are visited in base order for every Apply, and Applies
//     are visited in Plan.Applies() order, so effects are emitted in
//     exactly the serial fold order. Filtering and extension never
//     reorder rows.
//
//   - Purity. Conditions and terms are total functions of the frozen
//     snapshot: arithmetic is IEEE-754 (division by zero yields ±Inf or
//     NaN, never an error — see package expr), and Random is counter-based
//     on the unit key, so a term evaluates to the same bits no matter
//     when, how often, or in which pipeline it runs. This is what makes
//     the two reorderings below safe.
//
//   - Sharing. The plan is a DAG: branches share Select and Extend
//     prefixes. Extension values are memoized per (row, slot) through the
//     done bitset; the verdicts of a Select that more than one Apply
//     pulls rows through, per row in a tri-state memo; and aggregate
//     calls per (row, call class) — a class being every call of one
//     definition with the same canonical arguments (compile.go), whether
//     it sits in σφ and σ¬φ of an if/else, in both fields of a split
//     record argument, or in a let of an inlined function and at its
//     caller. So shared work is done once even though each Apply pulls
//     its own pipeline (set-at-a-time sharing, paper Section 5.2), and a
//     repeated call costs a bit test instead of a probe.
//
// Two plan-order rewrites happen when a plan's pipelines are laid out
// (once per plan, compile.go), per pipeline, without mutating the shared
// plan DAG:
//
//   - Guard pushdown: a Select stage moves below (i.e. runs before) every
//     Extend stage whose slot its condition does not read. Rows that fail
//     a cheap guard never reach the aggregate index probes inside the
//     extension — the dynamic, per-pipeline generalization of optimizer
//     rule B, which can only rewire single-consumer edges.
//
//   - Greedy conjunct ordering: a multi-clause Select condition is
//     flattened into its AND-conjuncts and reordered by syntax-visible
//     selectivity — equality guards first, then range guards, then
//     residuals (anything containing a call, a disjunction, a negation,
//     or an inequality). No statistics are consulted; the ordering is a
//     total, deterministic function of the condition's syntax.
//
// Aggregates whose batch evaluation is genuinely set-at-a-time (the
// MIN/MAX sweep line, BatchAggProvider.BatchBeneficial) cannot stream row
// at a time without losing the sweep. An Extend containing such a call
// becomes a blocking stage: the pipeline collects the surviving row set,
// batches the extension over it (batchExtend), and resumes streaming.
// Per-probe sweep results depend only on the point set (the frozen
// environment), never on the other probes, so the smaller probe sets
// produced by pushdown return bit-identical values.
package algebra

import (
	"fmt"
	"sort"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/interp"
)

// Tri-state Select memo verdicts (0 = not yet evaluated).
const (
	memoPass int8 = 1
	memoFail int8 = 2
)

// stage is one per-row pipeline step: exactly one of sel/ext is set.
// chainStages fills the placement (sel, conjs, ext); plan compilation
// (compile.go) attaches what the executor runs.
type stage struct {
	sel   *Select
	conjs []ast.Cond // sel.Cond's AND-conjuncts in greedy order
	ext   *Extend

	conds []expr.Cond // conjs compiled
	memo  int         // shared verdict memo ordinal; -1 when sel feeds one chain
	code  *extCode    // ext's compiled value and call sites
}

// bindStreamRows points the executor's flat row storage at the current
// base shard: every base row gets a Row backed by one shared extension
// array, plus a done bit per (row, slot) and a verdict memo per shared
// Select. The arrays are allocated when the shard size (or the plan)
// changes and merely re-pointed and cleared otherwise; Row pointers stay
// stable for the duration of a binding.
func (x *Executor) bindStreamRows() {
	if x.rowsBound {
		return
	}
	x.rowsBound = true
	base := x.baseRows()
	n := len(base)
	slots := x.plan.Slots
	words := (n*slots + 63) / 64
	if len(x.srows) != n || len(x.done) != words || len(x.selMemo) != x.code.memos {
		x.srows = make([]Row, n)
		back := make([]interp.Value, n*slots)
		for i := range x.srows {
			x.srows[i].ord = int32(i)
			x.srows[i].Ext = back[i*slots : (i+1)*slots : (i+1)*slots]
		}
		x.done = make([]uint64, words)
		x.selMemo = make([][]int8, x.code.memos)
		for i := range x.selMemo {
			x.selMemo[i] = make([]int8, n)
		}
	} else {
		clear(x.done)
		for _, m := range x.selMemo {
			clear(m)
		}
	}
	for i, u := range base {
		x.srows[i].Unit = u
	}
}

func (x *Executor) slotDone(row *Row, slot int) bool {
	i := int(row.ord)*x.plan.Slots + slot
	return x.done[i>>6]&(1<<uint(i&63)) != 0
}

func (x *Executor) markSlotDone(row *Row, slot int) {
	i := int(row.ord)*x.plan.Slots + slot
	x.done[i>>6] |= 1 << uint(i&63)
}

// ---------------------------------------------------------------------------
// Pipeline placement

// stagesFor returns the compiled stage list of a unit-set node: the
// plan's own for an Apply input, compiled on demand for any other node
// an external walker asks about.
func (x *Executor) stagesFor(n Node) ([]stage, error) {
	if stages, ok := x.code.chains[n]; ok {
		return stages, nil
	}
	stages, err := chainStages(n)
	if err != nil {
		return nil, err
	}
	for i := range stages {
		st := &stages[i]
		if st.sel != nil {
			// Unshared by construction: the plan's chains never saw it.
			st.conds, st.memo = x.code.sel[st.sel].conds, -1
		} else {
			st.code = x.code.ext[st.ext]
		}
	}
	return stages, nil
}

// chainStages turns the Base→…→n operator chain into its per-row stage
// list: stages collected base-first, guards pushed below independent
// extensions, conjuncts ordered greedily. This is the provider-independent
// core of pipeline compilation — the lint report (report.go) runs exactly
// this function, so static guard-placement diagnostics can never disagree
// with the live executor. Memo attachment and batch splitting, which do
// depend on the executor and its provider, happen in compileChain.
func chainStages(n Node) ([]stage, error) {
	var rev []Node
	for cur := n; ; {
		switch v := cur.(type) {
		case *Base:
			cur = nil
		case *Select:
			rev = append(rev, v)
			cur = v.In
		case *Extend:
			rev = append(rev, v)
			cur = v.In
		default:
			return nil, fmt.Errorf("algebra: node %T does not produce a unit set", cur)
		}
		if cur == nil {
			break
		}
	}
	stages := make([]stage, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		switch v := rev[i].(type) {
		case *Select:
			stages = append(stages, stage{sel: v, conjs: orderConjuncts(v.Cond)})
		case *Extend:
			stages = append(stages, stage{ext: v})
		}
	}
	pushdownGuards(stages)
	return stages, nil
}

// pushdownGuards moves every Select stage below (before) the Extend
// stages whose slots its condition does not read, preserving the relative
// order of Selects. Safe because conditions are pure and total: filtering
// earlier changes which rows an Extend computes, never the value any row
// computes to, and never the survivor set or its order.
func pushdownGuards(stages []stage) {
	for i := 1; i < len(stages); i++ {
		if stages[i].sel == nil {
			continue
		}
		var condSlots []int
		collectSlots(stages[i].sel.Cond, stages[i].sel.Env, &condSlots)
		reads := func(slot int) bool {
			for _, s := range condSlots {
				if s == slot {
					return true
				}
			}
			return false
		}
		j := i
		for j > 0 && stages[j-1].ext != nil && !reads(stages[j-1].ext.Slot) {
			stages[j], stages[j-1] = stages[j-1], stages[j]
			j--
		}
	}
}

// ---------------------------------------------------------------------------
// Greedy conjunct ordering

// flattenAnd appends the AND-conjuncts of c in source evaluation order.
func flattenAnd(c ast.Cond, out *[]ast.Cond) {
	if a, ok := c.(*ast.And); ok {
		flattenAnd(a.X, out)
		flattenAnd(a.Y, out)
		return
	}
	*out = append(*out, c)
}

// ConjunctClass is the syntax-only selectivity class of one AND-conjunct,
// most selective (and cheapest) first. It is exported because the lint
// pass (internal/sgl/lint) reports the same classification the executor
// orders by — one classifier, shared, so the two can never disagree.
type ConjunctClass int

// Conjunct selectivity classes.
const (
	ClassEqGuard    ConjunctClass = iota // call-free equality comparison
	ClassRangeGuard                      // call-free <, <=, >, >= comparison
	ClassResidual                        // everything else: <>, or, not, literals, calls
)

// String renders the class the way Explain and the lint report spell it.
func (c ConjunctClass) String() string {
	switch c {
	case ClassEqGuard:
		return "eq"
	case ClassRangeGuard:
		return "range"
	default:
		return "residual"
	}
}

// ClassifyConjunct ranks one conjunct by syntax-visible selectivity. Only
// the shape of the syntax is consulted — no statistics: equalities pin a
// value (most selective), ranges halve one (somewhat selective), and
// residuals — disjunctions, negations, inequalities, or anything that
// must call an aggregate or builtin — run last so cheap guards shed rows
// before expensive terms evaluate.
func ClassifyConjunct(c ast.Cond) ConjunctClass {
	cmp, ok := c.(*ast.Compare)
	if !ok {
		return ClassResidual
	}
	if termHasCall(cmp.X) || termHasCall(cmp.Y) {
		return ClassResidual
	}
	switch cmp.Op {
	case ast.Eq:
		return ClassEqGuard
	case ast.Lt, ast.Le, ast.Gt, ast.Ge:
		return ClassRangeGuard
	default: // Ne barely filters: treat like a residual
		return ClassResidual
	}
}

// orderConjuncts flattens a condition's AND-chain and stable-sorts the
// conjuncts by class, preserving source order within a class. Reordering
// is safe under short-circuit evaluation because every conjunct is a pure
// total function of the row (see the package comment); it changes which
// conjuncts get evaluated, never the verdict.
func orderConjuncts(c ast.Cond) []ast.Cond {
	var conjs []ast.Cond
	flattenAnd(c, &conjs)
	if len(conjs) > 1 {
		sort.SliceStable(conjs, func(i, j int) bool {
			return ClassifyConjunct(conjs[i]) < ClassifyConjunct(conjs[j])
		})
	}
	return conjs
}

// termHasCall reports whether t calls a function anywhere.
func termHasCall(t ast.Term) bool {
	found := false
	ast.Inspect(t, func(x any) bool {
		_, call := x.(*ast.Call)
		found = found || call
		return !found
	})
	return found
}

// ---------------------------------------------------------------------------
// Pipeline execution

// runStages pushes one row through a run of per-row stages; false means
// the row was filtered out.
func (x *Executor) runStages(stages []stage, row *Row) bool {
	f := x.at(row)
	for i := range stages {
		st := &stages[i]
		if st.sel != nil {
			if st.memo >= 0 {
				switch x.selMemo[st.memo][row.ord] {
				case memoPass:
					continue
				case memoFail:
					return false
				}
			}
			pass := allHold(st.conds, f)
			if st.memo >= 0 {
				if pass {
					x.selMemo[st.memo][row.ord] = memoPass
				} else {
					x.selMemo[st.memo][row.ord] = memoFail
				}
			}
			if !pass {
				return false
			}
			continue
		}
		if !x.slotDone(row, st.ext.Slot) {
			row.Ext[st.ext.Slot] = st.code.value.Value(f)
			x.markSlotDone(row, st.ext.Slot)
		}
	}
	return true
}

// runBatchStage evaluates a blocking Extend for the surviving rows that
// do not have it yet, through batchExtend — so the sweep-line technique
// answers the whole survivor set at once.
func (x *Executor) runBatchStage(st *stage, work []int32) {
	rows := x.batchRows[:0]
	for _, i := range work {
		row := &x.srows[i]
		if !x.slotDone(row, st.ext.Slot) {
			rows = append(rows, row)
		}
	}
	x.batchRows = rows
	if len(rows) == 0 {
		return
	}
	x.batchExtend(st.code, rows)
	for _, row := range rows {
		row.Ext[st.ext.Slot] = st.code.value.Value(x.at(row))
		x.markSlotDone(row, st.ext.Slot)
	}
}

// EachUnit invokes yield for every row of unit-set node n, one at a time,
// in base-row order — the serial effect fold order. The common case (no
// blocking batch stage) runs a single tight loop with no per-row
// bookkeeping beyond the shared memos. A chain with blocking stages is
// cut at each of them: the stages before it stream per row, the
// extension is batched over the survivors (collected as indexes in a
// reused scratch buffer), and streaming resumes after it.
func (x *Executor) EachUnit(n Node, yield func(*Row) error) error {
	if x.codeErr != nil {
		return x.codeErr
	}
	stages, err := x.stagesFor(n)
	if err != nil {
		return err
	}
	x.bindStreamRows()
	cut := -1
	for i := range stages {
		if stages[i].ext != nil && x.extendBlocking(stages[i].code) {
			cut = i
			break
		}
	}
	if cut < 0 {
		for i := range x.srows {
			row := &x.srows[i]
			if x.runStages(stages, row) {
				if err := yield(row); err != nil {
					return err
				}
			}
		}
		return nil
	}
	work := x.scratch[:0]
	for i := range x.srows {
		if x.runStages(stages[:cut], &x.srows[i]) {
			work = append(work, int32(i))
		}
	}
	for start := cut; start < len(stages); {
		x.runBatchStage(&stages[start], work)
		end := start + 1
		for end < len(stages) && !(stages[end].ext != nil && x.extendBlocking(stages[end].code)) {
			end++
		}
		kept := work[:0]
		for _, i := range work {
			if x.runStages(stages[start+1:end], &x.srows[i]) {
				kept = append(kept, i)
			}
		}
		work, start = kept, end
	}
	for _, i := range work {
		if err := yield(&x.srows[i]); err != nil {
			return err
		}
	}
	x.scratch = work[:0]
	return nil
}
