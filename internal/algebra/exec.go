package algebra

import (
	"fmt"
	"math"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Row is one unit flowing through a plan: its environment tuple plus the
// extension columns added by Extend operators. Ext is indexed by global
// slot; a Row object is shared by every branch that sees the unit, so each
// extension is computed exactly once (set-at-a-time sharing).
type Row struct {
	Unit []float64
	Ext  []interp.Value
	// ord is the row's ordinal within the executor's base shard — the
	// index of the flat memos (done bitset, Select verdicts, call-class
	// results).
	ord int32
}

// Ord is the row's ordinal within the executor's base shard: its
// environment row index less the shard's first.
func (r *Row) Ord() int { return int(r.ord) }

// Executor evaluates a plan over one tick's environment. It owns no
// expression logic: every condition, extension value, action argument and
// SET clause is a closure the plan compiled once (compile.go, package
// expr), and the executor's job is to bind rows to those closures in the
// right order, streaming each row through the compiled pipelines of
// stream.go.
//
// Concurrency contract: one Executor per goroutine, snapshot shared. An
// Executor owns mutable scratch state (its frames, row storage, memos and
// batch scratch) and must never be shared between goroutines;
// the inputs it closes over — the program, the compiled plan, the
// environment table, and the tick source — are all read-only during a
// tick and may be shared freely. The provider must likewise be private to
// the goroutine (see exec.Indexed.Fork) or stateless, like the
// interp.Naive walker the differential tests run it over.
//
// The parallel engine exploits this by giving every worker its own Executor
// over a disjoint row range of the same frozen environment snapshot: plan
// evaluation restricted to rows [lo, hi) while aggregates and target
// selection still see the whole environment through the provider.
//
// An Executor outlives a tick when its owner wants it to: Rebind points it
// at the next tick's environment, provider and random source and keeps
// the row storage while the shard size holds.
type Executor struct {
	prog *sem.Program
	plan *Plan
	env  *table.Table
	prov interp.Provider
	// code is the plan's compiled form; codeErr is why there is none.
	code    *planCode
	codeErr error
	// lo/hi restrict the Base node to env.Rows[lo:hi) — the unit shard this
	// executor is responsible for. hi < 0 means the full table. n is the
	// shard's size.
	lo, hi, n int

	// row is the frame plan-scope closures evaluate against, rebound to
	// each row as it flows; def is the frame of definition-scope closures
	// (an action's SET clauses).
	row, def expr.Frame

	// Flat row storage over the base shard: the rows and their extension
	// backing array, the per-(row, slot) extension done bitset, one
	// verdict memo per shared Select, and the survivor-index scratch
	// buffer reused between blocking batch stages. rowsBound says the storage reflects the
	// current binding.
	srows     []Row
	done      []uint64
	selMemo   [][]int8
	scratch   []int32
	rowsBound bool

	// Aggregate probing. batcher is the provider's set-at-a-time API when
	// it offers one, and carrier its check for answers carried across
	// bindings and its probe into a destination (exec.Indexed offers
	// both). memo
	// holds, per call class, the results already answered for a row —
	// every probe's destination, so a result (retained in an Extend slot
	// for a multi-output call) lives until the next Rebind. argStack holds
	// the argument vectors of the (possibly nested) calls in flight.
	// batchRows, batchUnits, batchArgs and batchVals are batchExtend's
	// probe-set scratch.
	batcher    BatchAggProvider
	carrier    carrier
	argStack   []float64
	memo       []callMemo
	batchRows  []*Row
	batchUnits [][]float64
	batchArgs  [][]float64
	batchVals  []float64
}

// callMemo is one call class's per-row results under the current binding:
// width values per base row, valid where the have bit is set, and the
// arguments each was computed with. batch says the provider answers the
// class set-at-a-time (batchExtend fills the memo ahead of probe). Storage
// is kept across Rebind, and so are the values: had holds the previous
// binding's have bits, the answers a row may carry (carried).
type callMemo struct {
	batch bool
	vals  []float64
	args  []float64
	have  []uint64
	had   []uint64
}

func (m *callMemo) has(ord int) bool { return bit(m.have, ord) }

// bit reports whether bit i of the bitset words is set.
func bit(words []uint64, i int) bool { return words[i>>6]&(1<<uint(i&63)) != 0 }

func (m *callMemo) set(ord int) { m.have[ord>>6] |= 1 << uint(ord&63) }

// carrier is the optional provider check behind carrying an answer from
// one binding to the next: whether def's answer for environment row row,
// computed against the previous binding's provider and held in dst,
// stands against this one for the same arguments — as it is, or as the
// provider rewrites it. A carrier probes through EvalAggRow, which knows
// the row it answers for and so can prepare the next binding's check.
// Implemented by exec.Indexed.
type carrier interface {
	Carries(dst []float64, def *ast.AggDef, row int) bool
	EvalAggRow(dst []float64, def *ast.AggDef, row int, unit, args []float64) []float64
}

// RangeError reports invalid shard bounds passed to NewExecutorRange.
type RangeError struct {
	Lo, Hi, Len int
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("algebra: executor row range [%d,%d) invalid for environment of %d rows", e.Lo, e.Hi, e.Len)
}

// NewExecutor binds a plan to an environment, provider, and tick source.
// The plan is compiled on its first executor and shared by every later
// one; a plan that does not compile (its AST was not checked against
// prog) surfaces the error from the first evaluation.
func NewExecutor(prog *sem.Program, plan *Plan, env *table.Table, prov interp.Provider, r rng.TickSource) *Executor {
	return newExecutor(prog, plan, env, prov, r, 0, -1)
}

func newExecutor(prog *sem.Program, plan *Plan, env *table.Table, prov interp.Provider, r rng.TickSource, lo, hi int) *Executor {
	x := &Executor{prog: prog, plan: plan}
	x.code, x.codeErr = plan.compiled(prog)
	x.row.Host = x
	x.bind(env, prov, r, lo, hi)
	return x
}

// NewExecutorRange is NewExecutor restricted to the unit shard
// env.Rows[lo:hi): the plan's Base node produces only those rows, while
// aggregates and action-target selection (which go through the provider)
// still observe the entire environment. hi < 0 selects the full table
// (then lo must be 0); otherwise 0 ≤ lo ≤ hi ≤ env.Len() is required and
// anything else — negative, inverted, or past-the-end bounds — returns a
// *RangeError instead of letting the Base node's slice expression panic
// mid-tick. Shard executors over disjoint ranges may run concurrently as
// long as each has its own provider view (see the concurrency contract
// on Executor).
func NewExecutorRange(prog *sem.Program, plan *Plan, env *table.Table, prov interp.Provider, r rng.TickSource, lo, hi int) (*Executor, error) {
	if err := checkRange(env, lo, hi); err != nil {
		return nil, err
	}
	return newExecutor(prog, plan, env, prov, r, lo, hi), nil
}

func checkRange(env *table.Table, lo, hi int) error {
	if hi < 0 {
		if hi != -1 || lo != 0 {
			return &RangeError{Lo: lo, Hi: hi, Len: env.Len()}
		}
	} else if lo < 0 || lo > hi || hi > env.Len() {
		return &RangeError{Lo: lo, Hi: hi, Len: env.Len()}
	}
	return nil
}

// Rebind points the executor at another tick: a new environment snapshot,
// provider and tick source over the row range [lo, hi) (bounds as for
// NewExecutorRange). The row storage and call memos are kept and reused
// while the shard size holds, which is what makes a steady-state tick
// allocate no per-row executor state. Everything computed under the
// previous binding is forgotten, except that a call's answer for a row
// is carried over when the new provider vouches for it (carried).
func (x *Executor) Rebind(env *table.Table, prov interp.Provider, r rng.TickSource, lo, hi int) error {
	if err := checkRange(env, lo, hi); err != nil {
		return err
	}
	x.bind(env, prov, r, lo, hi)
	return nil
}

func (x *Executor) bind(env *table.Table, prov interp.Provider, r rng.TickSource, lo, hi int) {
	n := env.Len()
	if hi >= 0 {
		n = hi - lo
	}
	// The memos' rows are the previous binding's only over the same shard.
	same := lo == x.lo && hi == x.hi && n == x.n
	x.env, x.prov, x.lo, x.hi, x.n = env, prov, lo, hi, n
	x.row.R, x.def.R = r, r
	x.batcher, _ = prov.(BatchAggProvider)
	x.carrier, _ = prov.(carrier)
	x.rowsBound = false
	if x.code == nil {
		return
	}
	if len(x.memo) != len(x.code.classes) {
		x.memo = make([]callMemo, len(x.code.classes))
	}
	words := (n + 63) / 64
	for i, c := range x.code.classes {
		m := &x.memo[i]
		m.batch = x.batcher != nil && x.batcher.BatchBeneficial(c.def)
		m.vals = sized(m.vals, n*len(c.def.Outputs))
		m.args = sized(m.args, n*(len(c.def.Params)-1))
		m.have, m.had = sized(m.had, words), m.have
		clear(m.have)
		if !same {
			m.had = sized(m.had, words)
			clear(m.had)
		}
	}
}

// sized returns s resliced to length n, reallocated only when it is too
// small.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// baseRows returns the slice of environment rows this executor's Base node
// produces.
func (x *Executor) baseRows() [][]float64 {
	if x.hi < 0 {
		return x.env.Rows
	}
	return x.env.Rows[x.lo:x.hi]
}

// at binds the plan-scope frame to a row.
func (x *Executor) at(row *Row) *expr.Frame {
	x.row.Unit, x.row.Ext, x.row.Ord = row.Unit, row.Ext, int(row.ord)
	return &x.row
}

// Effects evaluates the plan, emitting every effect row it produces. This
// is main⊕(E) without the final ⊕ E. Emitted rows are freshly allocated
// and may be retained.
func (x *Executor) Effects(emit func(row []float64)) error {
	if x.codeErr != nil {
		return x.codeErr
	}
	var args []float64
	for _, ap := range x.code.applies {
		err := x.EachUnit(ap.In, func(row *Row) error {
			args = x.ApplyArgs(args[:0], ap, row)
			x.prov.SelectTargets(ap.Def, row.Unit, args, func(tgt []float64) {
				emit(x.BuildEffectRow(nil, ap.Def, row.Unit, args, tgt))
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Tick computes the full semantics of Eq. (6) — the plan's effects
// ⊕-combined with the environment — and must agree exactly with
// interp.Evaluator.Tick on the same program.
func (x *Executor) Tick() (*table.Table, error) {
	effects := table.New(x.env.Schema, x.env.Len())
	if err := x.Effects(func(row []float64) { effects.Append(row) }); err != nil {
		return nil, err
	}
	return effects.Union(x.env).Combine(), nil
}

// allHold evaluates greedy-ordered conjuncts with short-circuit.
func allHold(conds []expr.Cond, f *expr.Frame) bool {
	for _, c := range conds {
		if !c(f) {
			return false
		}
	}
	return true
}

// probe answers one aggregate call site for the row bound to f out of its
// class memo: from the memo when an earlier site or batchExtend got there
// first, or when the previous binding's answer carries, otherwise by
// probing the provider into it. The result lives in the memo until
// Rebind.
func (x *Executor) probe(s *aggSite, f *expr.Frame) []float64 {
	def := s.class.def
	w := len(def.Outputs)
	m := &x.memo[s.class.id]
	dst := m.vals[f.Ord*w : (f.Ord+1)*w : (f.Ord+1)*w]
	if m.has(f.Ord) {
		return dst
	}
	// Arguments may themselves contain calls, so each call in flight owns
	// a segment of the argument stack.
	base := len(x.argStack)
	for _, a := range s.args {
		v := a(f) // may push and pop a nested call's segment above ours
		x.argStack = append(x.argStack, v)
	}
	unit := f.Unit
	args := x.argStack[base:len(x.argStack):len(x.argStack)]
	switch {
	case x.carried(m, def, f.Ord, args):
	case x.carrier != nil:
		x.carrier.EvalAggRow(dst, def, x.lo+f.Ord, unit, args)
	default:
		copy(dst, x.prov.EvalAgg(def, unit, args))
	}
	x.argStack = x.argStack[:base]
	m.set(f.Ord)
	return dst
}

// carried reports whether the answer the memo holds for row ord from the
// previous binding stands for this one: the row was answered then, with
// arguments bit-identical to args, and the provider vouches for it —
// nothing else the answer reads has changed, or a nearest answer's
// certificate holds and the provider rewrote it in place. Otherwise it
// records args as what the row's fresh answer is computed with. An
// answer carried this way is bit-identical to a fresh probe: it is the
// value the same pure function returned on inputs that have not changed,
// or the provider's certified re-derivation of it.
func (x *Executor) carried(m *callMemo, def *ast.AggDef, ord int, args []float64) bool {
	k, w := len(args), len(def.Outputs)
	prev := m.args[ord*k : (ord+1)*k]
	if x.carrier != nil && bit(m.had, ord) && bitsEqual(prev, args) &&
		x.carrier.Carries(m.vals[ord*w:(ord+1)*w:(ord+1)*w], def, x.lo+ord) {
		return true
	}
	copy(prev, args)
	return false
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// RunTick translates, optimizes, and executes a program for one tick — the
// compiled counterpart of interp.RunTickNaive.
func RunTick(prog *sem.Program, env *table.Table, prov interp.Provider, r rng.TickSource) (*table.Table, error) {
	plan, err := Translate(prog)
	if err != nil {
		return nil, err
	}
	Optimize(plan)
	return NewExecutor(prog, plan, env, prov, r).Tick()
}
