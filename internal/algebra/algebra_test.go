package algebra

import (
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

func testSchema(t testing.TB) *table.Schema {
	t.Helper()
	return table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "player", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "health", Kind: table.Const},
		table.Attr{Name: "cooldown", Kind: table.Const},
		table.Attr{Name: "range", Kind: table.Const},
		table.Attr{Name: "morale", Kind: table.Const},
		table.Attr{Name: "weaponused", Kind: table.Max},
		table.Attr{Name: "movevect_x", Kind: table.Sum},
		table.Attr{Name: "movevect_y", Kind: table.Sum},
		table.Attr{Name: "damage", Kind: table.Sum},
		table.Attr{Name: "inaura", Kind: table.Max},
	)
}

var testConsts = map[string]float64{
	"_ARROW_DAMAGE": 6, "_ARMOR": 2, "_HEAL_AURA": 4, "_HEALER_RANGE": 10,
}

const figure3Script = `
aggregate CountEnemiesInRange(u, range) :=
  count(*)
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate CentroidOfEnemies(u, range) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate WeakestEnemyInRange(u, range) :=
  argmin(e.health)
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

action FireAt(u, target_key) :=
  on e where e.key = target_key
  set damage = _ARROW_DAMAGE - _ARMOR;

action MarkFired(u) :=
  on e where e.key = u.key
  set weaponused = 1;

action MoveInDirection(u, dx, dy) :=
  on e where e.key = u.key
  set movevect_x = dx, movevect_y = dy;

function main(u) {
  (let c = CountEnemiesInRange(u, u.range))
  (let away = (u.posx, u.posy) - CentroidOfEnemies(u, u.range)) {
    if c > u.morale then
      perform MoveInDirection(u, away);
    else if c > 0 and u.cooldown = 0 then
      (let target = WeakestEnemyInRange(u, u.range)) {
        perform FireAt(u, target);
        perform MarkFired(u)
      }
  }
}
`

func compile(t testing.TB, src string) *sem.Program {
	t.Helper()
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := sem.Check(s, testSchema(t), testConsts)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func unit(key, player, x, y, health, cooldown, rng_, morale float64) []float64 {
	return []float64{key, player, x, y, health, cooldown, rng_, morale, 0, 0, 0, 0, 0}
}

func randomArmy(t testing.TB, seed uint64, n int, side float64) *table.Table {
	t.Helper()
	st := rng.NewStream(rng.New(seed), 50)
	env := table.New(testSchema(t), n)
	for i := 0; i < n; i++ {
		env.Append(unit(
			float64(i), float64(i%2),
			float64(st.Intn(int(side))), float64(st.Intn(int(side))),
			float64(5+st.Intn(20)), float64(st.Intn(3)),
			float64(3+st.Intn(8)), float64(st.Intn(6)),
		))
	}
	return env
}

// runTick translates, optimizes, and executes a program for one tick —
// the compiled counterpart of interp.RunTickNaive.
func runTick(prog *sem.Program, env *table.Table, prov interp.Provider, r rng.TickSource) (*table.Table, error) {
	plan, err := Translate(prog)
	if err != nil {
		return nil, err
	}
	Optimize(plan)
	return NewExecutor(prog, plan, env, prov, r).Tick()
}

// countNodes returns how many operators of each type the plan holds.
func countNodes(p *Plan) map[string]int {
	counts := map[string]int{}
	for _, n := range p.Nodes() {
		switch n.(type) {
		case *Base:
			counts["base"]++
		case *Select:
			counts["select"]++
		case *Extend:
			counts["extend"]++
		case *Apply:
			counts["apply"]++
		case *Combine:
			counts["combine"]++
		}
	}
	return counts
}

func TestTranslateFigure3Shape(t *testing.T) {
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	counts := countNodes(plan)
	if counts["base"] != 1 {
		t.Errorf("base = %d, want 1 (shared)", counts["base"])
	}
	if counts["extend"] != 3 { // c, away, target
		t.Errorf("extend = %d, want 3", counts["extend"])
	}
	if counts["apply"] != 3 { // Move, FireAt, MarkFired
		t.Errorf("apply = %d, want 3", counts["apply"])
	}
	if counts["select"] != 4 { // φ1, ¬φ1, φ2, ¬φ2... else-less if has 1
		// if/else → σφ1, σ¬φ1; inner if (no else) → σφ2: 3 total.
		if counts["select"] != 3 {
			t.Errorf("select = %d, want 3", counts["select"])
		}
	}
	if plan.Slots != 3 {
		t.Errorf("slots = %d, want 3", plan.Slots)
	}
	out := plan.Explain()
	for _, want := range []string{"act⊕", "σ", "π", "E", "⊕"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestOptimizeMovesCentroidOutOfElseBranch(t *testing.T) {
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)

	// After rule A + rule B, the `away` extension must be consumed only on
	// the then-branch and must sit above σ(c > u.morale), exactly the
	// Figure 6 (a)→(b) rewrite.
	var away *Extend
	for _, n := range plan.Nodes() {
		if e, ok := n.(*Extend); ok && strings.HasPrefix(e.Name, "away") {
			away = e
		}
	}
	if away == nil {
		t.Fatal("away extend eliminated entirely")
	}
	if _, ok := away.In.(*Select); !ok {
		t.Fatalf("away should be evaluated after the selection, got input %T", away.In)
	}
	// The else side must not read through the away extend: the ¬φ select's
	// input chain must not contain it.
	for _, n := range plan.Nodes() {
		if s, ok := n.(*Select); ok && strings.Contains(s.Cond.String(), "not") {
			for in := s.In; in != nil; {
				if in == away {
					t.Fatal("¬φ branch still flows through the away extend")
				}
				ins := in.Inputs()
				if len(ins) == 0 {
					break
				}
				in = ins[0]
			}
		}
	}
}

func TestOptimizeIdempotent(t *testing.T) {
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)
	first := plan.Explain()
	Optimize(plan)
	if plan.Explain() != first {
		t.Fatal("Optimize is not idempotent")
	}
}

func TestExecutorMatchesInterpreter(t *testing.T) {
	prog := compile(t, figure3Script)
	for seed := uint64(1); seed <= 5; seed++ {
		env := randomArmy(t, seed, 60, 40)
		r := rng.New(seed).Tick(3)

		want, err := interp.RunTickNaive(prog, env, r)
		if err != nil {
			t.Fatal(err)
		}

		// Unoptimized plan.
		plan, err := Translate(prog)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r).Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualContents(want) {
			t.Fatalf("seed %d: unoptimized plan differs from interpreter", seed)
		}

		// Optimized plan.
		Optimize(plan)
		got2, err := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r).Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !got2.EqualContents(want) {
			t.Fatalf("seed %d: optimized plan differs from interpreter", seed)
		}
	}
}

func TestInliningProducesSamePlanSemantics(t *testing.T) {
	inline := `
action Move(u, dx, dy) := on e where e.key = u.key set movevect_x = dx, movevect_y = dy;
function evade(w, v) { (let scaled = v * 2) perform Move(w, scaled) }
function main(u) {
  if u.health < 10 then perform evade(u, (1, 1)); else perform evade(u, (0 - 1, 0 - 1))
}`
	prog := compile(t, inline)
	env := randomArmy(t, 9, 30, 20)
	r := rng.New(9).Tick(1)
	want, err := interp.RunTickNaive(prog, env, r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runTick(prog, env, interp.NewNaive(prog, env, r), r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualContents(want) {
		t.Fatal("inlined plan differs from interpreter")
	}
	// Two inlinings of evade must not share slots: 2 distinct extends.
	plan, _ := Translate(prog)
	if plan.Slots != 2 {
		t.Fatalf("slots = %d, want 2 (alpha-renamed per inlining)", plan.Slots)
	}
}

func TestNestedFunctionInlining(t *testing.T) {
	src := `
action Move(u, dx, dy) := on e where e.key = u.key set movevect_x = dx, movevect_y = dy;
function level2(w, amt) { perform Move(w, amt, amt) }
function level1(w, amt) { perform level2(w, amt + 1) }
function main(u) { perform level1(u, 5) }`
	prog := compile(t, src)
	env := randomArmy(t, 3, 10, 20)
	r := rng.New(3).Tick(1)
	got, err := runTick(prog, env, interp.NewNaive(prog, env, r), r)
	if err != nil {
		t.Fatal(err)
	}
	s := env.Schema
	for _, row := range got.Rows {
		if row[s.MustCol("movevect_x")] != 6 {
			t.Fatalf("nested inline value = %v, want 6", row[s.MustCol("movevect_x")])
		}
	}
}

func TestEmptyMainPlan(t *testing.T) {
	prog := compile(t, "function main(u) {}")
	env := randomArmy(t, 2, 10, 20)
	r := rng.New(2).Tick(1)
	got, err := runTick(prog, env, interp.NewNaive(prog, env, r), r)
	if err != nil {
		t.Fatal(err)
	}
	if !got.EqualContents(env) {
		t.Fatal("empty main should leave E unchanged")
	}
}

// ---------------------------------------------------------------------------
// Figure 7 rule identities

func ruleTable(t testing.TB, seed uint64, n int) *table.Table {
	t.Helper()
	env := randomArmy(t, seed, n, 20)
	return env
}

// Rule (8): extending R with a computed column does not change what an
// action over it combines to, because the untyped column is dropped before
// ⊕. In our representation extensions never enter tables, so the identity
// reads: act(R) ⊕ R unchanged whether or not an extension was computed.
// We verify the operational form: applying a PaperAction to R and combining
// with R equals applying to R' (same rows, extension carried separately).
func TestRule8Extension(t *testing.T) {
	r := ruleTable(t, 1, 40)
	act := PaperAction{Col: r.Schema.MustCol("damage"), Delta: func(row []float64) float64 { return row[2] }}
	lhs := combine(act.Apply(r), r)
	// "Extend" r: same rows (extension held out-of-band), then apply.
	rPrime := r.Clone()
	rhs := combine(act.Apply(rPrime), rPrime)
	if !lhs.EqualContents(rhs) {
		t.Fatal("rule (8) violated")
	}
}

// Rule (9): f(σφ(R)) ⊕ g(σ¬φ(R)) ⊕ R = (f(R')⊕R') ⊕ (g(R”)⊕R”) with
// R' = σφ(R), R” = σ¬φ(R).
func TestRule9SelectionPartition(t *testing.T) {
	r := ruleTable(t, 2, 50)
	s := r.Schema
	phi := func(row []float64) bool { return row[s.MustCol("health")] > 12 }
	notPhi := func(row []float64) bool { return !phi(row) }
	f := PaperAction{Col: s.MustCol("damage"), Delta: func(row []float64) float64 { return 3 }}
	g := PaperAction{Col: s.MustCol("inaura"), Delta: func(row []float64) float64 { return 5 }}

	rP := SelectRows(r, phi)
	rN := SelectRows(r, notPhi)

	lhs := combine(combine(f.Apply(rP), g.Apply(rN)), r)
	rhs := combine(combine(f.Apply(rP), rP), combine(g.Apply(rN), rN))
	if !lhs.EqualContents(rhs) {
		t.Fatal("rule (9) violated")
	}
}

// Rule (10): R1⊕ ⊕ R2⊕ = π1.*⊕2.*(R1⊕ ⋈K R2⊕) for keyed tables over the
// same keys.
func TestRule10JoinForm(t *testing.T) {
	r := ruleTable(t, 3, 30)
	f := PaperAction{Col: r.Schema.MustCol("damage"), Delta: func(row []float64) float64 { return row[4] }}
	g := PaperAction{Col: r.Schema.MustCol("inaura"), Delta: func(row []float64) float64 { return 2 }}
	r1 := f.Apply(r) // keyed: one row per input row
	r2 := g.Apply(r)
	lhs := combine(r1, r2)
	rhs := JoinCombineK(r1, r2)
	if !lhs.EqualContents(rhs) {
		t.Fatal("rule (10) violated")
	}
}

// Covering-action elimination (Example 5.1 step 2): act⊕(R) ⊕ R = act⊕(R)
// when R's Sum effects are neutral (tick start) — the justification for
// dropping the ⊕ with E on branches whose action touches every unit.
func TestCoveringActionElimination(t *testing.T) {
	r := ruleTable(t, 4, 40)
	if !EffectsNeutral(r) {
		t.Fatal("fixture should start effect-neutral")
	}
	act := PaperAction{Col: r.Schema.MustCol("movevect_x"), Delta: func(row []float64) float64 { return 7 }}
	lhs := combine(act.Apply(r), r)
	rhs := act.Apply(r)
	if !lhs.EqualContents(rhs) {
		t.Fatal("covering-action elimination violated at tick start")
	}

	// And the precondition matters: a non-neutral R breaks it.
	rDirty := r.Clone()
	rDirty.Rows[0][r.Schema.MustCol("movevect_x")] = 5
	if EffectsNeutral(rDirty) {
		t.Fatal("dirty table should not be neutral")
	}
	lhs2 := combine(act.Apply(rDirty), rDirty)
	rhs2 := act.Apply(rDirty)
	if lhs2.EqualContents(rhs2) {
		t.Fatal("expected the identity to fail without the neutrality precondition")
	}
}

func TestJoinCombineKPanics(t *testing.T) {
	r := ruleTable(t, 5, 10)
	dup := r.Clone()
	dup.Rows = append(dup.Rows, append([]float64(nil), dup.Rows[0]...)) // unkeyed
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unkeyed input")
		}
	}()
	JoinCombineK(dup, r)
}

// TestReportFigure3Pipelines: Report yields one pipeline per Apply, in
// plan order, and each renders as its act line plus one line per stage;
// every let of the script calls an aggregate, so each is marked a probe.
func TestReportFigure3Pipelines(t *testing.T) {
	prog := compile(t, figure3Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)
	applies, err := plan.Applies()
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Report(prog, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(applies) {
		t.Fatalf("%d reports for %d applies", len(reports), len(applies))
	}
	probes := map[string]bool{}
	for i, r := range reports {
		if r.Action != applies[i].Def.Name {
			t.Errorf("report %d is for %s, want %s", i, r.Action, applies[i].Def.Name)
		}
		lines := strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n")
		if len(lines) != 1+len(r.Stages) || !strings.HasPrefix(lines[0], "act "+r.Action+"(") {
			t.Errorf("report %s renders as\n%s", r.Action, r.String())
		}
		for _, st := range r.Stages {
			if st.Extend != "" {
				probes[st.Extend] = st.AggProbe
			}
		}
	}
	want := map[string]bool{"c": true, "away": true, "target": true}
	for name, probe := range want {
		if got, ok := probes[name]; !ok || got != probe {
			t.Errorf("extension %s: probe %v (present %v), want %v", name, got, ok, probe)
		}
	}
}
