package exec

import (
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
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
		table.Attr{Name: "unittype", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "health", Kind: table.Const},
		table.Attr{Name: "maxhealth", Kind: table.Const},
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

const kitchenSinkScript = `
aggregate CountEnemiesInRange(u, range) :=
  count(*)
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate EnemyStats(u, range) :=
  count(*) as n, avg(e.posx) as cx, avg(e.posy) as cy,
  sum(e.health) as strength, stddev(e.posx) as spread
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate WeakestEnemyInRange(u, range) :=
  argmin(e.health) as key, min(e.health) as hp
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate NearestEnemy(u) :=
  nearestkey() as key, nearestdist() as dist
  over e where e.player <> u.player;

aggregate NearestWoundedFriend(u) :=
  nearestkey() as key
  over e where e.player = u.player and e.health < e.maxhealth;

aggregate StrongestAnywhere(u) :=
  argmax(e.health) as key, max(e.health) as hp
  over e where e.player <> u.player;

aggregate WoundedArchersNear(u, range) :=
  count(*)
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player and e.unittype = 1
    and e.health < 15;

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
  (let stats = EnemyStats(u, u.range))
  (let c = CountEnemiesInRange(u, u.range)) {
    if u.unittype = 2 then {
      if NearestWoundedFriend(u) >= 0 then perform Heal(u)
    };
    if c > u.morale and u.unittype < 2 then
      perform MoveInDirection(u, (u.posx, u.posy) - (stats.cx, stats.cy));
    else if c > 0 and u.cooldown = 0 and u.unittype < 2 then
      (let w = WeakestEnemyInRange(u, u.range)) {
        if w.key >= 0 then {
          perform FireAt(u, w.key);
          perform MarkFired(u)
        }
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

func randomArmy(t testing.TB, seed uint64, n int, side int) *table.Table {
	t.Helper()
	st := rng.NewStream(rng.New(seed), 70)
	env := table.New(testSchema(t), n)
	for i := 0; i < n; i++ {
		maxHP := float64(10 + st.Intn(20))
		env.Append([]float64{
			float64(i),                  // key
			float64(i % 2),              // player
			float64(st.Intn(3)),         // unittype: 0 knight, 1 archer, 2 healer
			float64(st.Intn(side)),      // posx
			float64(st.Intn(side)),      // posy
			maxHP - float64(st.Intn(8)), // health
			maxHP,                       // maxhealth
			float64(st.Intn(3)),         // cooldown
			float64(4 + 2*st.Intn(3)),   // range (few distinct values)
			float64(st.Intn(6)),         // morale
			0, 0, 0, 0, 0,
		})
	}
	return env
}

func categoricals() []string { return []string{"player", "unittype"} }

func TestClassification(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())

	count := an.Agg(prog.Script.Agg("CountEnemiesInRange"))
	if !count.Indexable {
		t.Fatal("CountEnemiesInRange should be indexable")
	}
	if len(count.Axes) != 2 || len(count.Eqs) != 1 || !count.Eqs[0].Neq {
		t.Fatalf("count analysis: axes=%d eqs=%+v", len(count.Axes), count.Eqs)
	}
	if count.OutClass[0] != ClassDivisible {
		t.Fatalf("count class = %v", count.OutClass[0])
	}

	stats := an.Agg(prog.Script.Agg("EnemyStats"))
	for i, c := range stats.OutClass {
		if c != ClassDivisible {
			t.Fatalf("EnemyStats output %d class = %v", i, c)
		}
	}

	weak := an.Agg(prog.Script.Agg("WeakestEnemyInRange"))
	if weak.OutClass[0] != ClassMinMax || weak.OutClass[1] != ClassMinMax {
		t.Fatalf("weakest classes = %v", weak.OutClass)
	}

	near := an.Agg(prog.Script.Agg("NearestEnemy"))
	if near.OutClass[0] != ClassNearest || near.OutClass[1] != ClassNearest {
		t.Fatalf("nearest classes = %v", near.OutClass)
	}

	strong := an.Agg(prog.Script.Agg("StrongestAnywhere"))
	if strong.OutClass[0] != ClassGlobal || strong.OutClass[1] != ClassGlobal {
		t.Fatalf("global classes = %v", strong.OutClass)
	}

	wounded := an.Agg(prog.Script.Agg("WoundedArchersNear"))
	if !wounded.Indexable || wounded.OutClass[0] != ClassDivisible {
		t.Fatalf("wounded: indexable=%v class=%v", wounded.Indexable, wounded.OutClass)
	}
	if len(wounded.EOnly) != 2 {
		// e.unittype = 1 (constant RHS) and e.health < 15 both fold into
		// the build-time partition filter.
		t.Fatalf("wounded e-only conjuncts = %d, want 2", len(wounded.EOnly))
	}

	fire := an.Act(prog.Script.Act("FireAt"))
	if fire.Class != ActByKey {
		t.Fatalf("FireAt class = %v", fire.Class)
	}
	mark := an.Act(prog.Script.Act("MarkFired"))
	if mark.Class != ActByKey {
		t.Fatalf("MarkFired class = %v", mark.Class)
	}
	heal := an.Act(prog.Script.Act("Heal"))
	if heal.Class != ActArea || !heal.Deferrable {
		t.Fatalf("Heal class = %v deferrable = %v", heal.Class, heal.Deferrable)
	}
}

// The central differential test: every aggregate of every definition must
// agree between Naive and Indexed for every unit.
func TestIndexedMatchesNaivePerAggregate(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	for seed := uint64(1); seed <= 3; seed++ {
		env := randomArmy(t, seed, 120, 40)
		r := rng.New(seed).Tick(2)
		naive := interp.NewNaive(prog, env, r)
		indexed := NewIndexed(an, env, r)
		for _, def := range prog.Script.Aggs {
			var args []float64
			if len(def.Params) > 1 {
				args = []float64{6} // the range parameter
			}
			for _, u := range env.Rows {
				want := naive.EvalAgg(def, u, args)
				got := indexed.EvalAgg(def, u, args)
				for i := range want {
					same := want[i] == got[i] ||
						(math.IsNaN(want[i]) && math.IsNaN(got[i])) ||
						math.Abs(want[i]-got[i]) < 1e-9
					if !same {
						t.Fatalf("seed %d agg %s unit %v output %d (%s): naive %v, indexed %v",
							seed, def.Name, u[0], i, an.Agg(def).OutClass[i], want[i], got[i])
					}
				}
			}
		}
	}
}

// Batch evaluation must agree with per-probe evaluation (and therefore
// with naive) for every output class, especially the sweepline MinMax path.
func TestBatchMatchesPerProbe(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 7, 150, 40)
	r := rng.New(7).Tick(4)

	for _, def := range prog.Script.Aggs {
		units := env.Rows
		var args [][]float64
		if len(def.Params) > 1 {
			args = make([][]float64, len(units))
			for i := range args {
				args[i] = []float64{env.Rows[i][env.Schema.MustCol("range")]}
			}
		}
		indexed := NewIndexed(an, env, r)
		batch := indexed.EvalAggBatch(def, units, args)
		fresh := NewIndexed(an, env, r)
		for i, u := range units {
			var arg []float64
			if args != nil {
				arg = args[i]
			}
			want := fresh.EvalAgg(def, u, arg)
			for j := range want {
				same := want[j] == batch[i][j] ||
					(math.IsNaN(want[j]) && math.IsNaN(batch[i][j])) ||
					math.Abs(want[j]-batch[i][j]) < 1e-9
				if !same {
					t.Fatalf("agg %s unit %d output %d: per-probe %v, batch %v",
						def.Name, i, j, want[j], batch[i][j])
				}
			}
		}
	}
}

// A window inverted on the sweep axis only — a negative radius on y — holds
// no row: the batch's sweep must answer the identities the scan does, not
// the leaves its exit pointer passed before they entered.
func TestBatchMatchesNaiveOnInvertedWindow(t *testing.T) {
	prog := compile(t, `
aggregate Strip(u, ry) :=
  min(e.health) as low, argmin(e.health) as who, max(e.health) as top
  over e where e.posx >= u.posx - 5 and e.posx <= u.posx + 5
    and e.posy >= u.posy - ry and e.posy <= u.posy + ry
    and e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Strip(u, 1).low) }`)
	an := NewAnalyzer(prog, categoricals())
	def := prog.Script.Agg("Strip")
	if an.Agg(def).OutClass[0] != ClassMinMax {
		t.Fatalf("Strip should sweep, is %v", an.Agg(def).OutClass[0])
	}
	env := randomArmy(t, 11, 400, 40)
	r := rng.New(11).Tick(1)
	naive := interp.NewNaive(prog, env, r)
	for _, ry := range []float64{-3, -1, 0, 2} {
		args := make([][]float64, env.Len())
		for i := range args {
			args[i] = []float64{ry}
		}
		batch := NewIndexed(an, env, r).EvalAggBatch(def, env.Rows, args)
		for i, u := range env.Rows {
			want := naive.EvalAgg(def, u, args[i])
			for j := range want {
				if math.Float64bits(want[j]) != math.Float64bits(batch[i][j]) {
					t.Fatalf("ry=%v unit %d output %d: naive %v, batch %v", ry, i, j, want[j], batch[i][j])
				}
			}
		}
	}
}

// A nearest definition with four outputs searches each matched partition
// once per probe, not once per output — on the kD-trees of a built
// provider and in the one pass over the rows an unbuilt one makes — and
// every output reads that one search.
func TestNearestSearchedOncePerProbe(t *testing.T) {
	prog := compile(t, `
aggregate Closest(u) :=
  nearestkey() as key, nearestdist() as dist, nearestx() as x, nearesty() as y
  over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Closest(u).dist) }`)
	an := NewAnalyzer(prog, categoricals())
	def := prog.Script.Agg("Closest")
	env := randomArmy(t, 5, 200, 30)
	r := rng.New(5).Tick(1)
	naive := interp.NewNaive(prog, env, r)

	built := NewIndexed(an, env, r)
	built.Freeze()
	unbuilt := NewIndexed(an, env, r)
	unbuilt.FreezeUnbuilt(def)
	for _, path := range []struct {
		name     string
		prov     *Indexed
		searches func(Stats) int
	}{
		{"built", built.Fork(), func(s Stats) int { return s.KDProbes }},
		{"one-shot", unbuilt.Fork(), func(s Stats) int { return s.KDOnce }},
	} {
		for i, u := range env.Rows {
			before := path.searches(path.prov.Stats)
			got := path.prov.EvalAgg(def, u, nil)
			// Two players: every probe matches the other one's partition.
			if n := path.searches(path.prov.Stats) - before; n != 1 {
				t.Fatalf("%s: unit %d searched %d times, want once", path.name, i, n)
			}
			want := naive.EvalAgg(def, u, nil)
			for j := range want {
				if want[j] != got[j] && math.Abs(want[j]-got[j]) >= 1e-9 {
					t.Fatalf("%s: unit %d output %d: naive %v, indexed %v", path.name, i, j, want[j], got[j])
				}
			}
		}
	}
}

func TestSelectTargetsMatchesNaive(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 9, 100, 30)
	r := rng.New(9).Tick(1)
	naive := interp.NewNaive(prog, env, r)
	indexed := NewIndexed(an, env, r)
	kc := env.Schema.KeyCol()
	for _, def := range prog.Script.Acts {
		args := make([]float64, len(def.Params)-1)
		for i := range args {
			args[i] = float64(i + 3) // FireAt target 3; Move deltas
		}
		for _, u := range env.Rows {
			collect := func(p interp.Provider) map[int64]int {
				out := map[int64]int{}
				p.SelectTargets(def, u, args, func(tgt []float64) {
					out[int64(tgt[kc])]++
				})
				return out
			}
			want := collect(naive)
			got := collect(indexed)
			if len(want) != len(got) {
				t.Fatalf("act %s unit %v: naive %d targets, indexed %d", def.Name, u[0], len(want), len(got))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("act %s unit %v target %d: naive %d, indexed %d", def.Name, u[0], k, n, got[k])
				}
			}
		}
	}
}

// Full-tick differential test: interpreter+naive vs compiled plan+indexed
// must produce identical environments.
func TestFullTickDifferential(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	for seed := uint64(1); seed <= 4; seed++ {
		env := randomArmy(t, seed, 80, 30)
		r := rng.New(seed).Tick(5)
		want, err := interp.RunTickNaive(prog, env, r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := algebra.RunTick(prog, env, NewIndexed(an, env, r), r)
		if err != nil {
			t.Fatal(err)
		}
		if !got.AlmostEqualContents(want, 1e-9) {
			t.Fatalf("seed %d: indexed tick differs from naive tick", seed)
		}
	}
}

func TestUOnlyFalseGivesIdentities(t *testing.T) {
	src := `
aggregate C(u, range) :=
  count(*) as n, min(e.health) as mn
  over e where u.cooldown = 0
    and e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range;
function main(u) {}`
	prog := compile(t, src)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 3, 20, 10)
	r := rng.New(3).Tick(1)
	indexed := NewIndexed(an, env, r)
	// Find a unit with nonzero cooldown.
	var unit []float64
	for _, u := range env.Rows {
		if u[env.Schema.MustCol("cooldown")] != 0 {
			unit = u
			break
		}
	}
	if unit == nil {
		t.Skip("no unit on cooldown in fixture")
	}
	out := indexed.EvalAgg(prog.Script.Agg("C"), unit, []float64{5})
	if out[0] != 0 || !math.IsInf(out[1], 1) {
		t.Fatalf("identities = %v", out)
	}
}

func TestNonIndexableFallsBackToNaive(t *testing.T) {
	// A residual conjunct (sum of two e-attributes) forces a scan.
	src := `
aggregate Diag(u) := count(*) over e where e.posx + e.posy <= u.posx;
function main(u) {}`
	prog := compile(t, src)
	an := NewAnalyzer(prog, categoricals())
	a := an.Agg(prog.Script.Agg("Diag"))
	if a.Indexable {
		t.Fatal("Diag should not be indexable")
	}
	env := randomArmy(t, 5, 50, 20)
	r := rng.New(5).Tick(1)
	naive := interp.NewNaive(prog, env, r)
	indexed := NewIndexed(an, env, r)
	for _, u := range env.Rows {
		if naive.EvalAgg(prog.Script.Agg("Diag"), u, nil)[0] != indexed.EvalAgg(prog.Script.Agg("Diag"), u, nil)[0] {
			t.Fatal("fallback disagrees with naive")
		}
	}
}

func TestStatsCountWork(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 11, 60, 20)
	r := rng.New(11).Tick(1)
	indexed := NewIndexed(an, env, r)
	def := prog.Script.Agg("CountEnemiesInRange")
	for _, u := range env.Rows {
		indexed.EvalAgg(def, u, []float64{5})
	}
	if indexed.Stats.IndexBuilds == 0 {
		t.Error("expected index builds to be counted")
	}
	if indexed.Stats.TreeProbes < len(env.Rows) {
		t.Errorf("TreeProbes = %d, want >= %d", indexed.Stats.TreeProbes, len(env.Rows))
	}
}

func TestOutputClassString(t *testing.T) {
	if ClassDivisible.String() != "divisible" || ActArea.String() != "area" {
		t.Fatal("String labels wrong")
	}
}

var benchSink []float64

func BenchmarkIndexedCountProbe(b *testing.B) {
	prog := compile(b, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(b, 42, 5000, 700)
	r := rng.New(42).Tick(1)
	indexed := NewIndexed(an, env, r)
	def := prog.Script.Agg("CountEnemiesInRange")
	indexed.EvalAgg(def, env.Rows[0], []float64{20}) // build once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = indexed.EvalAgg(def, env.Rows[i%env.Len()], []float64{20})
	}
}

func BenchmarkNaiveCountProbe(b *testing.B) {
	prog := compile(b, kitchenSinkScript)
	env := randomArmy(b, 42, 5000, 700)
	r := rng.New(42).Tick(1)
	naive := interp.NewNaive(prog, env, r)
	def := prog.Script.Agg("CountEnemiesInRange")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = naive.EvalAgg(def, env.Rows[i%env.Len()], []float64{20})
	}
}

var _ = ast.Count // keep ast import if assertions change
