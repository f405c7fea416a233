package algebra

import (
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/table"
)

// collectEffects runs the plan under one executor configuration and
// returns the emitted effect rows in order.
func collectEffects(t testing.TB, x *Executor) [][]float64 {
	t.Helper()
	var out [][]float64
	if err := x.Effects(func(row []float64) {
		out = append(out, append([]float64(nil), row...))
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// bitsEqualRows compares effect-row lists cell-exactly (Float64bits, so
// NaN payloads and signed zeros count), order included.
func bitsEqualRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for c := range a[i] {
			if math.Float64bits(a[i][c]) != math.Float64bits(b[i][c]) {
				return false
			}
		}
	}
	return true
}

// keyedBitsEqual compares two keyed tables cell-exactly after sorting by
// key. Tick output row order follows effect emission order, which
// legitimately differs between the unit-at-a-time interpreter and the
// Apply-major executor (Combine groups by first occurrence); comparisons
// against the interpreter are therefore keyed, while executor-vs-executor
// comparisons stay order-strict (bitsEqualTables).
func keyedBitsEqual(a, b *table.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	ac, bc := a.Clone(), b.Clone()
	ac.SortByKey()
	bc.SortByKey()
	return bitsEqualTables(ac, bc)
}

// bitsEqualTables is identicalTables from the engine tests: cell-exact
// including row order.
func bitsEqualTables(a, b *table.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][c]) != math.Float64bits(b.Rows[i][c]) {
				return false
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// NewExecutorRange bounds validation (regression: invalid shard bounds
// used to reach the Base node's slice expression and panic mid-tick).

func TestNewExecutorRangeValidation(t *testing.T) {
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	env := randomArmy(t, 1, 10, 20)
	r := rng.New(1).Tick(1)
	n := env.Len()

	valid := [][2]int{{0, n}, {0, -1}, {n, n}, {0, 0}, {3, 3}, {2, 7}}
	for _, b := range valid {
		x, err := NewExecutorRange(prog, plan, env, interp.NewNaive(prog, env, r), r, b[0], b[1])
		if err != nil {
			t.Errorf("bounds [%d,%d): unexpected error %v", b[0], b[1], err)
			continue
		}
		// The range must actually evaluate, not just construct.
		if err := x.Effects(func([]float64) {}); err != nil {
			t.Errorf("bounds [%d,%d): Effects failed: %v", b[0], b[1], err)
		}
	}

	invalid := [][2]int{{0, n + 1}, {-1, 5}, {-3, -1}, {5, 2}, {0, -2}, {1, -1}, {n + 1, n + 1}}
	for _, b := range invalid {
		_, err := NewExecutorRange(prog, plan, env, interp.NewNaive(prog, env, r), r, b[0], b[1])
		if err == nil {
			t.Errorf("bounds [%d,%d): expected *RangeError, got nil", b[0], b[1])
			continue
		}
		var re *RangeError
		if !errors.As(err, &re) {
			t.Errorf("bounds [%d,%d): error %v is not a *RangeError", b[0], b[1], err)
			continue
		}
		if re.Lo != b[0] || re.Hi != b[1] || re.Len != n {
			t.Errorf("bounds [%d,%d): RangeError carries [%d,%d) len %d", b[0], b[1], re.Lo, re.Hi, re.Len)
		}
	}
}

// Sharded streaming executors over a partition of the table must emit,
// concatenated in shard order, exactly the full-table effect sequence —
// the property the parallel engine's ordered merge relies on.
func TestStreamingShardsConcatenate(t *testing.T) {
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)
	env := randomArmy(t, 4, 40, 30)
	r := rng.New(4).Tick(2)

	whole := collectEffects(t, NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r))

	// Effects interleave per Apply node, so shard-concatenation only holds
	// per plan walk; emulate the engine by walking Applies explicitly.
	applies, err := plan.Applies()
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 13, 14, 40}
	perApply := make([][][]float64, len(applies))
	for i := 0; i+1 < len(cuts); i++ {
		x, err := NewExecutorRange(prog, plan, env, interp.NewNaive(prog, env, r), r, cuts[i], cuts[i+1])
		if err != nil {
			t.Fatal(err)
		}
		for j, ap := range applies {
			err := x.EachUnit(ap.In, func(row *Row) error {
				args := x.ApplyArgs(nil, ap, row)
				x.prov.SelectTargets(ap.Def, row.Unit, args, func(tgt []float64) {
					perApply[j] = append(perApply[j], x.BuildEffectRow(nil, ap.Def, row.Unit, args, tgt))
				})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	var merged [][]float64
	for _, rows := range perApply {
		merged = append(merged, rows...)
	}
	// The serial executor also walks Applies in plan order (via Combine
	// kids), so the node-major shard-minor merge must reproduce it.
	if !bitsEqualRows(whole, merged) {
		t.Fatal("sharded streaming executors do not concatenate to the full-table effect sequence")
	}
}

// ---------------------------------------------------------------------------
// Streaming ≡ materializing, at the algebra level.

func TestStreamingMatchesMaterializingFigure3(t *testing.T) {
	prog := compile(t, figure3Script)
	for seed := uint64(1); seed <= 5; seed++ {
		env := randomArmy(t, seed, 60, 40)
		r := rng.New(seed).Tick(3)

		for _, opt := range []bool{false, true} {
			plan, err := Translate(prog)
			if err != nil {
				t.Fatal(err)
			}
			if opt {
				Optimize(plan)
			}
			mx := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r)
			mx.SetMaterialize(true)
			mat := collectEffects(t, mx)
			stream := collectEffects(t, NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r))
			if !bitsEqualRows(mat, stream) {
				t.Fatalf("seed %d opt=%v: streaming effects differ from materializing", seed, opt)
			}
			if len(mat) == 0 {
				t.Fatalf("seed %d opt=%v: fixture produced no effects — test is vacuous", seed, opt)
			}
		}
	}
}

// Shared-subplan aliasing audit (the Extend-mutates-shared-rows hazard):
// a let consumed by both branches of an if/else is one Extend node feeding
// two Select consumers. Materializing shares the *Row objects across both
// branches; streaming shares the flat Ext backing plus the done bitset and
// Select verdict memos. Both must agree with the interpreter exactly.
func TestSharedSubplanBranches(t *testing.T) {
	const src = `
aggregate Foes(u) :=
  count(*)
  over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
action Mark(u, v) := on e where e.key = u.key set inaura = v;
function main(u) {
  (let c = Foes(u)) {
    if c > 20 and u.health > 14 then perform Tag(u, c * 2);
    else perform Mark(u, c + 1)
  }
}`
	prog := compile(t, src)
	for seed := uint64(1); seed <= 3; seed++ {
		env := randomArmy(t, seed, 50, 25)
		r := rng.New(seed).Tick(1)
		want, err := interp.RunTickNaive(prog, env, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []bool{false, true} {
			plan, err := Translate(prog)
			if err != nil {
				t.Fatal(err)
			}
			if opt {
				Optimize(plan)
			}
			var ref *table.Table // materializing run, per plan
			for _, mat := range []bool{true, false} {
				x := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r)
				x.SetMaterialize(mat)
				got, err := x.Tick()
				if err != nil {
					t.Fatal(err)
				}
				// Keyed vs the interpreter (emission interleaving differs),
				// order-strict between the two executor paths.
				if !keyedBitsEqual(got, want) {
					t.Fatalf("seed %d opt=%v materialize=%v: shared-subplan tick differs from interpreter", seed, opt, mat)
				}
				if ref == nil {
					ref = got
				} else if !bitsEqualTables(got, ref) {
					t.Fatalf("seed %d opt=%v: streaming tick not bit-identical to materializing", seed, opt)
				}
			}
		}
	}
}

// Every extension slot must be owned by exactly one Extend node — the
// structural invariant that makes in-place row extension (materializing)
// and the per-(row, slot) done bitset (streaming) sound. The translator
// alpha-renames per inlining and the optimizer only rewires edges, so
// this must hold before and after Optimize.
func TestExtendSlotOwnership(t *testing.T) {
	progs := map[string]string{"figure3": figure3Script, "inline": `
action Move(u, dx, dy) := on e where e.key = u.key set movevect_x = dx, movevect_y = dy;
function evade(w, v) { (let scaled = v * 2) perform Move(w, scaled) }
function main(u) {
  if u.health < 10 then perform evade(u, (1, 1)); else perform evade(u, (0 - 1, 0 - 1))
}`}
	for name, src := range progs {
		t.Run(name, func(t *testing.T) {
			prog := compile(t, src)
			for _, opt := range []bool{false, true} {
				plan, err := Translate(prog)
				if err != nil {
					t.Fatal(err)
				}
				if opt {
					Optimize(plan)
				}
				owner := map[int]*Extend{}
				for _, n := range plan.Nodes() {
					e, ok := n.(*Extend)
					if !ok {
						continue
					}
					if prev, dup := owner[e.Slot]; dup && prev != e {
						t.Fatalf("opt=%v: slot %d owned by two Extends (%s, %s)", opt, e.Slot, prev.Name, e.Name)
					}
					owner[e.Slot] = e
					if e.Slot < 0 || e.Slot >= plan.Slots {
						t.Fatalf("opt=%v: slot %d out of range [0,%d)", opt, e.Slot, plan.Slots)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Pipeline compilation: guard pushdown and greedy conjunct ordering.

func TestPipelineGuardPushdown(t *testing.T) {
	// Unoptimized figure3: the MoveInDirection chain is
	// Base → π(c) → π(away) → σ(c > u.morale). The guard reads only slot c,
	// so compilation must bubble it below the away extension:
	// [π(c), σ, π(away)].
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	env := randomArmy(t, 1, 10, 20)
	r := rng.New(1).Tick(1)
	x := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r)

	applies, err := plan.Applies()
	if err != nil {
		t.Fatal(err)
	}
	var move *Apply
	for _, ap := range applies {
		if ap.Def.Name == "MoveInDirection" {
			move = ap
		}
	}
	if move == nil {
		t.Fatal("no MoveInDirection apply in figure3 plan")
	}
	stages, err := x.stagesFor(move.In)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("stage count = %d, want 3", len(stages))
	}
	if stages[0].ext == nil || !strings.HasPrefix(stages[0].ext.Name, "c") {
		t.Fatalf("stage 0 should be the c extension, got %+v", stages[0])
	}
	if stages[1].sel == nil {
		t.Fatalf("stage 1 should be the pushed-down guard, got %+v", stages[1])
	}
	if stages[2].ext == nil || !strings.HasPrefix(stages[2].ext.Name, "away") {
		t.Fatalf("stage 2 should be the away extension, got %+v", stages[2])
	}
}

func TestPipelineConjunctOrdering(t *testing.T) {
	// The FireAt chain's guard is "c > 0 and u.cooldown = 0": greedy
	// ordering must evaluate the equality before the range conjunct.
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	env := randomArmy(t, 1, 10, 20)
	r := rng.New(1).Tick(1)
	x := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r)
	applies, err := plan.Applies()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ap := range applies {
		stages, err := x.stagesFor(ap.In)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stages {
			if st.sel == nil || len(st.conjs) < 2 {
				continue
			}
			found = true
			if len(st.conds) != len(st.conjs) {
				t.Fatalf("stage runs %d compiled conjuncts for %d ordered ones", len(st.conds), len(st.conjs))
			}
			for i := 1; i < len(st.conjs); i++ {
				if ClassifyConjunct(st.conjs[i-1]) > ClassifyConjunct(st.conjs[i]) {
					t.Fatalf("conjuncts out of greedy order: class %d before class %d",
						ClassifyConjunct(st.conjs[i-1]), ClassifyConjunct(st.conjs[i]))
				}
			}
		}
	}
	if !found {
		t.Fatal("no multi-conjunct Select stage compiled — fixture no longer covers ordering")
	}
}

func num(v float64) *ast.NumLit { return &ast.NumLit{Val: v} }

func TestConjClass(t *testing.T) {
	cmp := func(op ast.CmpOp, x, y ast.Term) ast.Cond { return &ast.Compare{Op: op, X: x, Y: y} }
	cases := []struct {
		name string
		cond ast.Cond
		want ConjunctClass
	}{
		{"eq", cmp(ast.Eq, num(1), num(2)), ClassEqGuard},
		{"lt", cmp(ast.Lt, num(1), num(2)), ClassRangeGuard},
		{"le", cmp(ast.Le, num(1), num(2)), ClassRangeGuard},
		{"gt", cmp(ast.Gt, num(1), num(2)), ClassRangeGuard},
		{"ge", cmp(ast.Ge, num(1), num(2)), ClassRangeGuard},
		{"ne-is-residual", cmp(ast.Ne, num(1), num(2)), ClassResidual},
		{"call-poisons-eq", cmp(ast.Eq, &ast.Call{Name: "abs", Args: []ast.Term{num(1)}}, num(2)), ClassResidual},
		{"nested-call-poisons", cmp(ast.Lt, &ast.Binary{Op: ast.Add, X: num(1), Y: &ast.Call{Name: "abs", Args: []ast.Term{num(1)}}}, num(2)), ClassResidual},
		{"or", &ast.Or{X: cmp(ast.Eq, num(1), num(1)), Y: cmp(ast.Eq, num(2), num(2))}, ClassResidual},
		{"not", &ast.Not{X: cmp(ast.Eq, num(1), num(1))}, ClassResidual},
		{"boollit", &ast.BoolLit{Val: true}, ClassResidual},
	}
	for _, c := range cases {
		if got := ClassifyConjunct(c.cond); got != c.want {
			t.Errorf("%s: class = %d, want %d", c.name, got, c.want)
		}
	}

	// Ordering is stable within a class and sorted across classes.
	residual := cmp(ast.Ne, num(9), num(8))
	rangeA := cmp(ast.Lt, num(1), num(2))
	rangeB := cmp(ast.Gt, num(3), num(4))
	eq := cmp(ast.Eq, num(5), num(5))
	ordered := orderConjuncts(&ast.And{
		X: &ast.And{X: residual, Y: rangeA},
		Y: &ast.And{X: rangeB, Y: eq},
	})
	want := []ast.Cond{eq, rangeA, rangeB, residual}
	if len(ordered) != len(want) {
		t.Fatalf("ordered %d conjuncts, want %d", len(ordered), len(want))
	}
	for i := range want {
		if ordered[i] != want[i] {
			t.Fatalf("position %d: got class %d, want class %d (stable order violated)",
				i, ClassifyConjunct(ordered[i]), ClassifyConjunct(want[i]))
		}
	}
}

// ---------------------------------------------------------------------------
// IEEE totality: poisoned floats are deterministic, not errors. (The
// operator-level cases live with the compiler: expr.TestArithmeticIEEE and
// expr.TestNaNComparisons.)

// A script that actually produces Inf and NaN effect values must fold
// them bit-identically across the interpreter and both executor paths —
// the algebra-level half of the replayed ≡ live guarantee for poisoned
// floats.
func TestPoisonedFloatsDeterministic(t *testing.T) {
	const src = `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, u.health / u.cooldown) }`
	prog := compile(t, src)
	env := table.New(testSchema(t), 6)
	// (health, cooldown): 5/0 → +Inf, 0/0 → NaN, ordinary quotients after.
	env.Append(unit(0, 0, 1, 1, 5, 0, 4, 1))
	env.Append(unit(1, 1, 2, 2, 0, 0, 4, 1))
	env.Append(unit(2, 0, 3, 3, 7, 2, 4, 1))
	env.Append(unit(3, 1, 4, 4, 9, 1, 4, 1))
	env.Append(unit(4, 0, 5, 5, 0, 3, 4, 1))
	env.Append(unit(5, 1, 6, 6, 11, 0, 4, 1))
	r := rng.New(3).Tick(1)

	want, err := interp.RunTickNaive(prog, env, r)
	if err != nil {
		t.Fatal(err)
	}
	dc := env.Schema.MustCol("damage")
	if !math.IsInf(want.Rows[0][dc], 1) || !math.IsNaN(want.Rows[1][dc]) {
		t.Fatalf("fixture did not poison the fold: damage = %v, %v", want.Rows[0][dc], want.Rows[1][dc])
	}

	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)
	for _, mat := range []bool{false, true} {
		x := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r)
		x.SetMaterialize(mat)
		got, err := x.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqualTables(got, want) {
			t.Fatalf("materialize=%v: poisoned-float tick not bit-identical to interpreter", mat)
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation ratchet: the streaming per-row effect path must not regress
// toward per-row allocation. The materializing path allocates one *Row
// plus one Ext slice per environment row per tick; streaming allocates a
// constant number of backing arrays. Gate at a 4× margin so runtime
// changes don't flake the suite.

func TestStreamingAllocRatchet(t *testing.T) {
	const src = `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let a = u.health * 2 + u.posx) { if a < 0 - 1000 then perform Tag(u, a) } }`
	prog := compile(t, src)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)
	env := randomArmy(t, 11, 1024, 64)
	r := rng.New(11).Tick(1)

	run := func(mat bool) float64 {
		return testing.AllocsPerRun(10, func() {
			x := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r)
			x.SetMaterialize(mat)
			if err := x.Effects(func([]float64) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	matAllocs := run(true)
	streamAllocs := run(false)
	t.Logf("allocs per tick over %d rows: materializing %.0f, streaming %.0f", env.Len(), matAllocs, streamAllocs)
	if matAllocs < float64(env.Len()) {
		t.Fatalf("materializing path allocated only %.0f for %d rows — fixture no longer per-row, ratchet is vacuous", matAllocs, env.Len())
	}
	if streamAllocs > matAllocs/4 {
		t.Fatalf("streaming allocates %.0f per tick (materializing %.0f): per-row allocation crept back in", streamAllocs, matAllocs)
	}
}
