package interp

import (
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
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
	"_ARROW_DAMAGE": 6,
	"_ARMOR":        2,
	"_HEAL_AURA":    4,
	"_HEALER_RANGE": 10,
}

// unit builds a row: key, player, posx, posy, health, cooldown, range,
// morale, then zeroed effect columns.
func unit(key, player, x, y, health, cooldown, rng_, morale float64) []float64 {
	return []float64{key, player, x, y, health, cooldown, rng_, morale, 0, 0, 0, 0, 0}
}

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

func makeEnv(t testing.TB, rows ...[]float64) *table.Table {
	t.Helper()
	env := table.New(testSchema(t), len(rows))
	for _, r := range rows {
		env.Append(r)
	}
	return env
}

func tick() rng.TickSource { return rng.New(7).Tick(1) }

const combatScript = `
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

aggregate NearestEnemy(u) :=
  nearestkey() as key, nearestdist() as dist
  over e where e.player <> u.player;

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

action Heal(u) :=
  on e where u.player = e.player
    and e.posx >= u.posx - _HEALER_RANGE and e.posx <= u.posx + _HEALER_RANGE
    and e.posy >= u.posy - _HEALER_RANGE and e.posy <= u.posy + _HEALER_RANGE
  set inaura = _HEAL_AURA;

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

func TestRunUnitFires(t *testing.T) {
	prog := compile(t, combatScript)
	// Unit 1 (player 0) sees one enemy (key 2) in range; morale high.
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 0, 5, 3),
		unit(2, 1, 12, 10, 15, 0, 5, 3),
	)
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	var rows [][]float64
	if err := ev.RunUnit(env.Rows[0], func(r []float64) { rows = append(rows, append([]float64(nil), r...)) }); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("effect rows = %d, want 2 (FireAt + MarkFired)", len(rows))
	}
	s := env.Schema
	var sawDamage, sawMark bool
	for _, r := range rows {
		switch int64(r[s.KeyCol()]) {
		case 2:
			if r[s.MustCol("damage")] != 4 {
				t.Errorf("damage = %v, want 4", r[s.MustCol("damage")])
			}
			sawDamage = true
		case 1:
			if r[s.MustCol("weaponused")] != 1 {
				t.Errorf("weaponused = %v, want 1", r[s.MustCol("weaponused")])
			}
			sawMark = true
		}
	}
	if !sawDamage || !sawMark {
		t.Fatalf("missing effects: damage=%v mark=%v", sawDamage, sawMark)
	}
}

func TestRunUnitFlees(t *testing.T) {
	prog := compile(t, combatScript)
	// Three enemies in range, morale 2 → flee. Enemies centered at x=13.
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 0, 5, 2),
		unit(2, 1, 12, 10, 15, 0, 5, 3),
		unit(3, 1, 13, 10, 15, 0, 5, 3),
		unit(4, 1, 14, 10, 15, 0, 5, 3),
	)
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	var rows [][]float64
	if err := ev.RunUnit(env.Rows[0], func(r []float64) { rows = append(rows, append([]float64(nil), r...)) }); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("effect rows = %d, want 1 (move)", len(rows))
	}
	s := env.Schema
	// away = (10,10) - centroid(13,10) = (-3, 0).
	if got := rows[0][s.MustCol("movevect_x")]; got != -3 {
		t.Errorf("movevect_x = %v, want -3", got)
	}
	if got := rows[0][s.MustCol("movevect_y")]; got != 0 {
		t.Errorf("movevect_y = %v, want 0", got)
	}
	// Unset effect columns must sit at their identities.
	if got := rows[0][s.MustCol("damage")]; got != 0 {
		t.Errorf("damage identity = %v, want 0", got)
	}
	if got := rows[0][s.MustCol("weaponused")]; !math.IsInf(got, -1) {
		t.Errorf("weaponused identity = %v, want -Inf", got)
	}
}

func TestRunUnitIdlesOnCooldown(t *testing.T) {
	prog := compile(t, combatScript)
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 3, 5, 3), // cooldown 3 → no action
		unit(2, 1, 12, 10, 15, 0, 5, 3),
	)
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	count := 0
	if err := ev.RunUnit(env.Rows[0], func([]float64) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 0 {
		t.Fatalf("cooldown unit emitted %d effects, want 0", count)
	}
}

func TestTickCombinesEffects(t *testing.T) {
	prog := compile(t, combatScript)
	// Two archers (1,3) both in range of enemy 2 only; enemy 2 is the
	// weakest (and only) target: damage must stack to 8.
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 0, 5, 9),
		unit(3, 0, 11, 10, 20, 0, 5, 9),
		unit(2, 1, 12, 10, 15, 99, 5, 9), // enemy on cooldown: acts empty
	)
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	out, err := ev.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("tick rows = %d, want 3", out.Len())
	}
	s := env.Schema
	target := rowByKey(out, 2)
	if target == nil {
		t.Fatal("target row missing")
	}
	if got := target[s.MustCol("damage")]; got != 8 {
		t.Fatalf("stacked damage = %v, want 8 (4+4)", got)
	}
}

func TestHealAuraNonstackable(t *testing.T) {
	src := combatScript + `
function healerMain(u) { perform Heal(u) }`
	prog := compile(t, src)
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 0, 5, 9),
		unit(2, 0, 12, 10, 15, 0, 5, 9),
	)
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	// Apply Heal from both units directly (bypassing main): two overlapping
	// auras on each friendly unit must max to 4, not sum to 8.
	effects := table.New(env.Schema, 4)
	healDef := prog.Script.Act("Heal")
	for _, u := range env.Rows {
		p := NewNaive(prog, env, tick())
		p.SelectTargets(healDef, u, nil, func(tgt []float64) {
			row, err := ev.BuildEffectRow(healDef, u, nil, tgt)
			if err != nil {
				t.Fatal(err)
			}
			effects.Append(row)
		})
	}
	if effects.Len() != 4 {
		t.Fatalf("aura rows = %d, want 4 (2 healers × 2 targets)", effects.Len())
	}
	combined := effects.Union(env).Combine()
	s := env.Schema
	for _, key := range []int64{1, 2} {
		if got := rowByKey(combined, key)[s.MustCol("inaura")]; got != 4 {
			t.Fatalf("inaura key %d = %v, want 4 (nonstackable max)", key, got)
		}
	}
}

func TestNearestAggregates(t *testing.T) {
	prog := compile(t, combatScript)
	env := makeEnv(t,
		unit(1, 0, 0, 0, 20, 0, 5, 3),
		unit(2, 1, 3, 4, 15, 0, 5, 3), // dist 5
		unit(3, 1, 6, 8, 15, 0, 5, 3), // dist 10
	)
	p := NewNaive(prog, env, tick())
	def := prog.Script.Agg("NearestEnemy")
	out := p.EvalAgg(def, env.Rows[0], nil)
	if out[0] != 2 {
		t.Fatalf("nearestkey = %v, want 2", out[0])
	}
	if out[1] != 5 {
		t.Fatalf("nearestdist = %v, want 5", out[1])
	}
}

func TestNearestExcludesSelf(t *testing.T) {
	prog := compile(t, `
aggregate NearestAny(u) := nearestkey() as key, nearestdist() as dist over e;
function main(u) {}`)
	env := makeEnv(t,
		unit(1, 0, 0, 0, 20, 0, 5, 3),
		unit(2, 0, 3, 4, 15, 0, 5, 3),
	)
	p := NewNaive(prog, env, tick())
	out := p.EvalAgg(prog.Script.Agg("NearestAny"), env.Rows[0], nil)
	if out[0] != 2 {
		t.Fatalf("nearest should exclude self, got key %v", out[0])
	}
}

func TestEmptySetIdentities(t *testing.T) {
	prog := compile(t, `
aggregate Stats(u) :=
  count(*) as n, sum(e.health) as s, avg(e.health) as a,
  stddev(e.health) as sd, min(e.health) as mn, max(e.health) as mx,
  argmin(e.health) as am, nearestkey() as nk, nearestdist() as nd
  over e where e.player <> u.player;
function main(u) {}`)
	env := makeEnv(t, unit(1, 0, 0, 0, 20, 0, 5, 3)) // no enemies at all
	p := NewNaive(prog, env, tick())
	out := p.EvalAgg(prog.Script.Agg("Stats"), env.Rows[0], nil)
	if out[0] != 0 || out[1] != 0 || out[2] != 0 || out[3] != 0 {
		t.Fatalf("count/sum/avg/stddev over empty = %v", out[:4])
	}
	if !math.IsInf(out[4], 1) || !math.IsInf(out[5], -1) {
		t.Fatalf("min/max over empty = %v %v", out[4], out[5])
	}
	if out[6] != NoKey || out[7] != NoKey {
		t.Fatalf("argmin/nearestkey over empty = %v %v", out[6], out[7])
	}
	if !math.IsInf(out[8], 1) {
		t.Fatalf("nearestdist over empty = %v", out[8])
	}
}

func TestStatisticalAggregates(t *testing.T) {
	prog := compile(t, `
aggregate Stats(u) :=
  count(*) as n, sum(e.health) as s, avg(e.health) as a, stddev(e.health) as sd
  over e where e.player <> u.player;
function main(u) {}`)
	env := makeEnv(t,
		unit(1, 0, 0, 0, 20, 0, 5, 3),
		unit(2, 1, 1, 0, 10, 0, 5, 3),
		unit(3, 1, 2, 0, 20, 0, 5, 3),
		unit(4, 1, 3, 0, 30, 0, 5, 3),
	)
	p := NewNaive(prog, env, tick())
	out := p.EvalAgg(prog.Script.Agg("Stats"), env.Rows[0], nil)
	if out[0] != 3 || out[1] != 60 || out[2] != 20 {
		t.Fatalf("count/sum/avg = %v", out[:3])
	}
	want := math.Sqrt(200.0 / 3.0) // population stddev of {10,20,30}
	if math.Abs(out[3]-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", out[3], want)
	}
}

func TestArgMinTieBreak(t *testing.T) {
	prog := compile(t, `
aggregate Weakest(u) := argmin(e.health) over e where e.player <> u.player;
function main(u) {}`)
	env := makeEnv(t,
		unit(1, 0, 0, 0, 20, 0, 5, 3),
		unit(5, 1, 1, 0, 10, 0, 5, 3),
		unit(3, 1, 2, 0, 10, 0, 5, 3), // tie on health: smaller key wins
	)
	p := NewNaive(prog, env, tick())
	out := p.EvalAgg(prog.Script.Agg("Weakest"), env.Rows[0], nil)
	if out[0] != 3 {
		t.Fatalf("argmin tie = %v, want 3", out[0])
	}
}

func TestRandomDeterministicWithinTick(t *testing.T) {
	prog := compile(t, `
action Jitter(u) := on e where e.key = u.key set movevect_x = Random(1) % 5;
function main(u) { perform Jitter(u) }`)
	env := makeEnv(t, unit(1, 0, 0, 0, 20, 0, 5, 3))
	run := func() float64 {
		ev := New(prog, env, NewNaive(prog, env, tick()), tick())
		var v float64
		if err := ev.RunUnit(env.Rows[0], func(r []float64) { v = r[env.Schema.MustCol("movevect_x")] }); err != nil {
			t.Fatal(err)
		}
		return v
	}
	if run() != run() {
		t.Fatal("Random not stable within a tick")
	}
	// Different tick → (almost surely) different value; check a few ticks.
	diff := false
	for tk := int64(2); tk < 10 && !diff; tk++ {
		r2 := rng.New(7).Tick(tk)
		ev := New(prog, env, NewNaive(prog, env, r2), r2)
		var v float64
		if err := ev.RunUnit(env.Rows[0], func(r []float64) { v = r[env.Schema.MustCol("movevect_x")] }); err != nil {
			t.Fatal(err)
		}
		if v != run() {
			diff = true
		}
	}
	if !diff {
		t.Fatal("Random identical across 8 ticks; ρ not varying")
	}
}

func TestScriptFunctionInlining(t *testing.T) {
	prog := compile(t, `
action Move(u, x, y) := on e where e.key = u.key set movevect_x = x, movevect_y = y;
function go(w, v) { perform Move(w, v) }
function main(u) { perform go(u, (3, 4)) }`)
	env := makeEnv(t, unit(1, 0, 0, 0, 20, 0, 5, 3))
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	var row []float64
	if err := ev.RunUnit(env.Rows[0], func(r []float64) { row = append([]float64(nil), r...) }); err != nil {
		t.Fatal(err)
	}
	s := env.Schema
	if row == nil || row[s.MustCol("movevect_x")] != 3 || row[s.MustCol("movevect_y")] != 4 {
		t.Fatalf("inlined call wrong: %v", row)
	}
}

func TestScalarBuiltinsEvaluate(t *testing.T) {
	prog := compile(t, `
action Apply(u, v) := on e where e.key = u.key set movevect_x = v;
function main(u) {
  (let a = abs(0 - 3))
  (let b = min(a, max(2, 1)) + sqrt(16) + floor(2.9))
  perform Apply(u, b)
}`)
	env := makeEnv(t, unit(1, 0, 0, 0, 20, 0, 5, 3))
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	var got float64
	if err := ev.RunUnit(env.Rows[0], func(r []float64) { got = r[env.Schema.MustCol("movevect_x")] }); err != nil {
		t.Fatal(err)
	}
	if got != 2+4+2 {
		t.Fatalf("builtins = %v, want 8", got)
	}
}

func TestModuloTruncates(t *testing.T) {
	prog := compile(t, `
action Apply(u, v) := on e where e.key = u.key set movevect_x = v;
function main(u) { perform Apply(u, 7 % 3) }`)
	env := makeEnv(t, unit(1, 0, 0, 0, 20, 0, 5, 3))
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	var got float64
	if err := ev.RunUnit(env.Rows[0], func(r []float64) { got = r[env.Schema.MustCol("movevect_x")] }); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("7 %% 3 = %v, want 1", got)
	}
}

func TestBoundaryInclusiveRange(t *testing.T) {
	prog := compile(t, combatScript)
	// Enemy exactly at range boundary (Chebyshev distance = range).
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 0, 5, 0),
		unit(2, 1, 15, 10, 15, 0, 5, 0),
	)
	p := NewNaive(prog, env, tick())
	out := p.EvalAgg(prog.Script.Agg("CountEnemiesInRange"), env.Rows[0], []float64{5})
	if out[0] != 1 {
		t.Fatalf("boundary enemy not counted: %v", out[0])
	}
}

func TestTickIdempotentForIdleArmy(t *testing.T) {
	prog := compile(t, combatScript)
	// All units on cooldown: tick(E) must equal E exactly.
	env := makeEnv(t,
		unit(1, 0, 10, 10, 20, 5, 5, 3),
		unit(2, 1, 12, 10, 15, 5, 5, 3),
	)
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	out, err := ev.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !out.EqualContents(env) {
		t.Fatal("idle tick changed the environment")
	}
}

func TestValueHelpers(t *testing.T) {
	v := RecVal([]string{"x", "y"}, []float64{1, 2})
	if f, ok := v.Field("y"); !ok || f != 2 {
		t.Fatalf("Field(y) = %v,%v", f, ok)
	}
	if _, ok := v.Field("z"); ok {
		t.Fatal("Field(z) should not exist")
	}
	if NumVal(3).Num != 3 {
		t.Fatal("NumVal wrong")
	}
}

func TestDefParamsPanicsOnBadType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefParams(42)
}

var sinkRows int

func BenchmarkNaiveTick(b *testing.B) {
	prog := compile(b, combatScript)
	st := rng.NewStream(rng.New(3), 9)
	env := table.New(testSchema(b), 500)
	for i := 0; i < 500; i++ {
		env.Append(unit(float64(i), float64(i%2), st.Float64()*200, st.Float64()*200, 20, 0, 10, 4))
	}
	ev := New(prog, env, NewNaive(prog, env, tick()), tick())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ev.Tick()
		if err != nil {
			b.Fatal(err)
		}
		sinkRows = out.Len()
	}
}

// rowByKey returns the first row of t with the given key, or nil.
func rowByKey(t *table.Table, key int64) []float64 {
	kc := t.Schema.KeyCol()
	for _, r := range t.Rows {
		if r[kc] == float64(key) {
			return r
		}
	}
	return nil
}
