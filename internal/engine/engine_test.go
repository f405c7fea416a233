package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

func battleProg(t testing.TB) *sem.Program {
	t.Helper()
	prog, err := game.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func newEngine(t testing.TB, prog *sem.Program, n int, mode Mode, seed uint64, tweak func(*Options)) *Engine {
	t.Helper()
	spec := workload.Spec{Units: n, Density: 0.01, Seed: seed, Formation: workload.BattleLines}
	opts := Options{
		Mode:         mode,
		Categoricals: game.Categoricals(),
		Seed:         seed,
		Side:         spec.Side(),
		MoveSpeed:    1,
	}
	if tweak != nil {
		tweak(&opts)
	}
	e, err := New(prog, game.NewMechanics(), workload.Generate(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// walkerDecides is an Options.midTick hook that checks the tick's
// decision phase against the independent oracle: the interp tree walker
// over the naive O(n)-scan provider, run on the same frozen rows with the
// same tick source, every unit's effect rows folded in unit order. The
// engine's accumulator must equal the walker's in every cell, bit for bit.
// checked counts the ticks it compared.
func walkerDecides(t *testing.T, checked *int) func(*Engine) {
	return func(e *Engine) {
		r := e.src.Tick(e.tick)
		want := newAccumulator(e.prog.Schema, e.env.Len())
		keyIdx := buildKeyIndex(e.env)
		kc := e.prog.Schema.KeyCol()
		ev := interp.New(e.prog, e.env, interp.NewNaive(e.prog, e.env, r), r)
		for _, unit := range e.env.Rows {
			if err := ev.RunUnit(unit, func(row []float64) {
				if i, ok := keyIdx.Get(int64(row[kc])); ok {
					want.foldRow(int(i), row)
				}
			}); err != nil {
				t.Fatalf("tick %d: walker: %v", e.tick, err)
			}
		}
		for i, row := range want.vals {
			for c, v := range row {
				if got := e.acc.vals[i][c]; math.Float64bits(got) != math.Float64bits(v) {
					t.Fatalf("tick %d: row %d column %s: decision phase folded %v, the walker %v",
						e.tick, i, e.prog.Schema.Attr(c).Name, got, v)
				}
			}
		}
		*checked++
	}
}

// The Naive mode is the shared decision phase over all-scan probes. Every
// tick its effect accumulator must equal the walker's, bit for bit: over
// the battle and every zoo world, at one shard and at four, and across an
// OpTune of every constant the tune fixture compiles.
func TestNaiveDecisionMatchesWalker(t *testing.T) {
	const ticks = 15
	type world struct {
		name  string
		prog  *sem.Program
		units int
	}
	worlds := []world{{"battle", battleProg(t), 90}, {"tune", compileZoo(t, tuneScript), 120}}
	for _, zp := range exec.Zoo {
		worlds = append(worlds, world{zp.Name, compileZoo(t, zp.Src), 64})
	}
	for _, w := range worlds {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", w.name, workers), func(t *testing.T) {
				checked := 0
				e := newEngine(t, w.prog, w.units, Naive, 7, func(o *Options) {
					o.Workers, o.midTick = workers, walkerDecides(t, &checked)
				})
				for tick := 0; tick < ticks; tick++ {
					if w.name == "tune" && tick == 5 {
						tuneAll(t, e)
					}
					if err := e.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				if checked != ticks {
					t.Fatalf("compared %d of %d ticks", checked, ticks)
				}
			})
		}
	}
}

// The paper's central correctness claim: the indexed engine is an
// optimization, not a different game. Both engines must produce identical
// environments tick-for-tick, and the Naive one must decide like the
// walker.
func TestNaiveAndIndexedAgreeOverManyTicks(t *testing.T) {
	prog := battleProg(t)
	for _, seed := range []uint64{1, 2} {
		checked := 0
		naive := newEngine(t, prog, 90, Naive, seed, func(o *Options) { o.midTick = walkerDecides(t, &checked) })
		indexed := newEngine(t, prog, 90, Indexed, seed, nil)
		for tick := 0; tick < 12; tick++ {
			if err := naive.Tick(); err != nil {
				t.Fatalf("naive tick %d: %v", tick, err)
			}
			if err := indexed.Tick(); err != nil {
				t.Fatalf("indexed tick %d: %v", tick, err)
			}
			if !naive.Env().AlmostEqualContents(indexed.Env(), 1e-9) {
				t.Fatalf("seed %d: engines diverged at tick %d", seed, tick)
			}
		}
		if checked != 12 {
			t.Fatalf("seed %d: the walker checked %d of 12 ticks", seed, checked)
		}
	}
}

// The Section 5.4 deferred area path must not change outcomes either.
func TestAreaDeferMatchesDirect(t *testing.T) {
	prog := battleProg(t)
	deferred := newEngine(t, prog, 72, Indexed, 5, nil)
	direct := newEngine(t, prog, 72, Indexed, 5, func(o *Options) { o.DisableAreaDefer = true })
	for tick := 0; tick < 10; tick++ {
		if err := deferred.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := direct.Tick(); err != nil {
			t.Fatal(err)
		}
		if !deferred.Env().AlmostEqualContents(direct.Env(), 1e-9) {
			t.Fatalf("area defer diverged at tick %d", tick)
		}
	}
}

// The optimizer rewrites must be semantics-preserving inside the engine.
func TestOptimizerPreservesEngineSemantics(t *testing.T) {
	prog := battleProg(t)
	opt := newEngine(t, prog, 60, Indexed, 9, nil)
	raw := newEngine(t, prog, 60, Indexed, 9, func(o *Options) { o.DisableOptimizer = true })
	for tick := 0; tick < 8; tick++ {
		if err := opt.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := raw.Tick(); err != nil {
			t.Fatal(err)
		}
		if !opt.Env().AlmostEqualContents(raw.Env(), 1e-9) {
			t.Fatalf("optimizer changed semantics at tick %d", tick)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	prog := battleProg(t)
	a := newEngine(t, prog, 60, Indexed, 11, nil)
	b := newEngine(t, prog, 60, Indexed, 11, nil)
	if err := a.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(10); err != nil {
		t.Fatal(err)
	}
	if !a.Env().EqualContents(b.Env()) {
		t.Fatal("same seed must reproduce the same battle exactly")
	}
	c := newEngine(t, prog, 60, Indexed, 12, nil)
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if a.Env().EqualContents(c.Env()) {
		t.Fatal("different seeds should diverge")
	}
}

// Engine invariants over a longer run.
func TestEngineInvariants(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 120, Indexed, 3, nil)
	s := game.Schema()
	side := (workload.Spec{Units: 120, Density: 0.01}).Side()
	for tick := 0; tick < 25; tick++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		env := e.Env()
		if env.Len() != 120 {
			t.Fatalf("population changed: %d (resurrection rule broken)", env.Len())
		}
		occupied := map[[2]int]int{}
		for _, row := range env.Rows {
			h := row[s.MustCol("health")]
			if h <= 0 {
				t.Fatalf("dead unit in environment at tick %d", tick)
			}
			if h > row[s.MustCol("maxhealth")] {
				t.Fatalf("health above max at tick %d: %v", tick, h)
			}
			if row[s.MustCol("cooldown")] < 0 {
				t.Fatal("negative cooldown")
			}
			x, y := row[s.MustCol("posx")], row[s.MustCol("posy")]
			if x < 0 || x >= side || y < 0 || y >= side {
				t.Fatalf("unit out of bounds: %v,%v (side %v)", x, y, side)
			}
			// Effect columns must be back at game defaults after the tick.
			for _, c := range []string{"weaponused", "movevect_x", "movevect_y", "damage", "inaura"} {
				if row[s.MustCol(c)] != 0 {
					t.Fatalf("effect column %s not reset: %v", c, row[s.MustCol(c)])
				}
			}
			sq := [2]int{int(x), int(y)}
			occupied[sq]++
			if occupied[sq] > 1 {
				t.Fatalf("collision: two units in square %v at tick %d", sq, tick)
			}
		}
	}
	if e.Stats.Moves == 0 {
		t.Error("nobody moved in 25 ticks; scripts inert?")
	}
	if e.Stats.EffectsApplied == 0 {
		t.Error("no effects applied in 25 ticks")
	}
}

func TestCombatActuallyHappens(t *testing.T) {
	prog := battleProg(t)
	// Dense arena (4%) so the armies make contact quickly.
	spec := workload.Spec{Units: 120, Density: 0.04, Seed: 21, Formation: workload.BattleLines}
	opts := Options{
		Mode:         Indexed,
		Categoricals: game.Categoricals(),
		Seed:         21,
		Side:         spec.Side(),
		MoveSpeed:    1,
	}
	e, err := New(prog, game.NewMechanics(), workload.Generate(spec), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(60); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Deaths == 0 {
		t.Error("no deaths in 30 ticks of a battle-lines engagement")
	}
	if e.Stats.IndexStats.TreeProbes == 0 {
		t.Error("indexed engine made no range-tree probes")
	}
	if e.Stats.IndexStats.Sweeps == 0 {
		t.Error("indexed engine ran no sweeps (weakest-in-reach should batch)")
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	prog := battleProg(t)
	env := workload.Generate(workload.Spec{Units: 10, Density: 0.01, Seed: 1})
	dup := env.Clone()
	dup.Rows[1][dup.Schema.KeyCol()] = dup.Rows[0][dup.Schema.KeyCol()]
	if _, err := New(prog, game.NewMechanics(), dup, Options{Side: 10, MoveSpeed: 1}); err == nil {
		t.Fatal("duplicate keys should be rejected")
	}
	noPos := table.MustSchema(table.Attr{Name: "key", Kind: table.Const})
	_ = noPos // schema mismatch is caught by sem long before the engine
}

func TestEngineModeString(t *testing.T) {
	if Naive.String() != "naive" || Indexed.String() != "indexed" {
		t.Fatal("mode labels wrong")
	}
}

func BenchmarkTickNaive500(b *testing.B)   { benchTick(b, Naive, 500) }
func BenchmarkTickIndexed500(b *testing.B) { benchTick(b, Indexed, 500) }

func benchTick(b *testing.B, mode Mode, n int) {
	prog := battleProg(b)
	// Serial pin: keep these baseline numbers machine-independent.
	e := newEngine(b, prog, n, mode, 42, func(o *Options) { o.Workers = 1 })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}
