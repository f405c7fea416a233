package exec

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// mustPanic asserts fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s should panic", what)
		}
	}()
	fn()
}

// Fork without Freeze was documented unsafe but previously raced
// silently; now it must panic immediately.
func TestForkBeforeFreezePanics(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 1, 16, 20)
	prov := NewIndexed(an, env, rng.New(1).Tick(0))
	mustPanic(t, "Fork before Freeze", func() { prov.Fork() })

	// After Freeze, Fork is fine and probes work.
	prov.Freeze()
	f := prov.Fork()
	def := prog.Script.Agg("CountEnemiesInRange")
	out := f.EvalAgg(def, env.Rows[0], []float64{8})
	if len(out) != 1 {
		t.Fatalf("forked probe returned %v", out)
	}
}

// A forked view must refuse to build any index lazily, even if its cache
// were somehow incomplete — the guard is the regression test's subject.
func TestForkedLazyBuildPanics(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 2, 16, 20)
	prov := NewIndexed(an, env, rng.New(2).Tick(0))
	// White-box: mark the view forked without freezing, the state a racy
	// Fork used to produce.
	view := *prov
	view.forked = true
	def := prog.Script.Agg("CountEnemiesInRange")
	mustPanic(t, "lazy aggregate build on forked view", func() {
		view.EvalAgg(def, env.Rows[0], []float64{8})
	})
	mustPanic(t, "lazy key lookup on forked view", func() {
		view.keyLookup()
	})
}

// mutateRows applies a synthetic "tick" to the environment: some units
// move, some take damage, one dies and respawns across the map, one
// changes nothing. Returns the delta a bit-compare would capture.
func mutateRows(env *table.Table, snap [][]float64) Delta {
	s := env.Schema
	posx, posy := s.MustCol("posx"), s.MustCol("posy")
	health, cd := s.MustCol("health"), s.MustCol("cooldown")
	for i, row := range env.Rows {
		switch i % 16 {
		case 0: // moves
			row[posx] += 1
		case 1: // takes damage
			row[health] -= 2
		case 2: // cools down
			if row[cd] > 0 {
				row[cd]--
			}
		case 3: // dies and respawns far away
			row[health] = row[s.MustCol("maxhealth")]
			row[posx], row[posy] = float64(90+i), float64(90+i)
		default: // untouched
		}
	}
	var d Delta
	for i, row := range env.Rows {
		var m uint64
		for c, v := range row {
			if math.Float64bits(v) != math.Float64bits(snap[i][c]) {
				m |= ColBit(c)
			}
		}
		if m != 0 {
			d.Dirty = append(d.Dirty, i)
			d.Masks = append(d.Masks, m)
		}
	}
	return d
}

// TestMaintainFromMatchesFreshBuild is the exec-level differential: a
// provider maintained from the previous tick's structures must answer
// every aggregate probe, batch probe, and target selection exactly like a
// freshly built provider over the same mutated environment.
func TestMaintainFromMatchesFreshBuild(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	for _, seed := range []uint64{3, 4, 5} {
		env := randomArmy(t, seed, 48, 24)
		r0 := rng.New(seed).Tick(0)
		prev := NewIndexed(an, env, r0)
		prev.Freeze()

		snap := make([][]float64, env.Len())
		for i, row := range env.Rows {
			snap[i] = append([]float64(nil), row...)
		}
		d := mutateRows(env, snap)
		if len(d.Dirty) == 0 {
			t.Fatal("mutation produced an empty delta")
		}

		r1 := rng.New(seed).Tick(1)
		fresh := NewIndexed(an, env, r1)
		fresh.Freeze()
		maint := NewIndexed(an, env, r1)
		if !maint.MaintainFrom(prev, d, 1) {
			t.Fatal("MaintainFrom did not maintain anything")
		}
		maint.Freeze()
		if maint.Stats.IndexReuses == 0 {
			t.Error("expected some structures to be reused")
		}

		assertSameAnswers(t, fmt.Sprintf("seed %d maintained", seed), prog, env, fresh, maint)
	}
}

// assertSameAnswers probes two providers over the same environment with
// every aggregate definition (per probe and batched) and every action's
// target selection, and fails unless they agree bit for bit and row for
// row. want is the reference.
func assertSameAnswers(t *testing.T, label string, prog *sem.Program, env *table.Table, want, got *Indexed) {
	t.Helper()
	for _, def := range prog.Script.Aggs {
		var arg []float64
		if len(def.Params) > 1 {
			arg = []float64{8}
		}
		units := env.Rows
		batchWant := want.EvalAggBatch(def, units, repeatArgs(arg, len(units)))
		batchGot := got.EvalAggBatch(def, units, repeatArgs(arg, len(units)))
		for i := range units {
			pw := want.EvalAgg(def, units[i], arg)
			pg := got.EvalAgg(def, units[i], arg)
			for c := range pw {
				if math.Float64bits(pw[c]) != math.Float64bits(pg[c]) {
					t.Fatalf("%s: %s unit %d out %d: want %v, got %v", label, def.Name, i, c, pw[c], pg[c])
				}
				if math.Float64bits(batchWant[i][c]) != math.Float64bits(batchGot[i][c]) {
					t.Fatalf("%s: %s unit %d out %d (batch): want %v, got %v", label, def.Name, i, c, batchWant[i][c], batchGot[i][c])
				}
			}
		}
	}
	for _, def := range prog.Script.Acts {
		for i, unit := range env.Rows {
			args := make([]float64, len(def.Params)-1)
			for j := range args {
				args[j] = float64(i % 7)
			}
			var a, b [][]float64
			want.SelectTargets(def, unit, args, func(row []float64) { a = append(a, row) })
			got.SelectTargets(def, unit, args, func(row []float64) { b = append(b, row) })
			if len(a) != len(b) {
				t.Fatalf("%s: %s unit %d: want %d targets, got %d", label, def.Name, i, len(a), len(b))
			}
			for j := range a {
				if &a[j][0] != &b[j][0] {
					t.Fatalf("%s: %s unit %d: target %d differs", label, def.Name, i, j)
				}
			}
		}
	}
}

// TestParallelFreezeMatchesSerial is the sharded Freeze's differential: a
// provider frozen across 1, 2, 4 or 8 build workers must hold the same
// structures as a serially frozen one — same answers to every probe form,
// and the same Stats but the re-sort counters, since the counters are
// per-partition integers summed after the barrier, whichever worker built
// what. From the second
// round on the provider is built the way a tick builds it — into the
// storage of the previous round's retired provider (Recycle), over
// mutated rows —
// so recycled capacity is shown not to leak into results at any worker
// count either. Forks of the parallel-frozen provider probe concurrently,
// which is what -race is watching.
func TestParallelFreezeMatchesSerial(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	for _, workers := range []int{1, 2, 4, 8} {
		env := randomArmy(t, 11, 64, 24)
		var retired *Indexed
		for round := 0; round < 4; round++ {
			r := rng.New(11).Tick(int64(round))
			serial := NewIndexed(an, env, r)
			serial.Freeze()

			par := NewIndexed(an, env, r)
			par.Recycle(retired)
			par.FreezeParallel(workers)
			label := fmt.Sprintf("workers %d round %d", workers, round)
			// The re-sort counters count work that depends on what the
			// recycled storage held before; every other count is a
			// function of the rows.
			ps := par.Stats
			ps.ResortedPoints, ps.ResortMoves, ps.ResortFallbacks = serial.Stats.ResortedPoints, serial.Stats.ResortMoves, serial.Stats.ResortFallbacks
			if ps != serial.Stats {
				t.Fatalf("%s: Stats %+v, serial Freeze %+v", label, par.Stats, serial.Stats)
			}
			assertSameAnswers(t, label, prog, env, serial, par)

			// Concurrent forks, as a parallel tick probes them: every fork
			// sweeps the same shared orderings on its own scratch.
			var wg sync.WaitGroup
			swept := make([][][]float64, 4)
			def := prog.Script.Agg("WeakestEnemyInRange")
			args := make([][]float64, env.Len())
			for i, unit := range env.Rows {
				args[i] = []float64{unit[env.Schema.MustCol("range")]}
			}
			for w := range swept {
				wg.Add(1)
				go func(w int, f *Indexed) {
					defer wg.Done()
					swept[w] = f.EvalAggBatch(def, env.Rows, args)
				}(w, par.Fork())
			}
			wg.Wait()
			want := serial.EvalAggBatch(def, env.Rows, args)
			for w := range swept {
				for i := range want {
					for c := range want[i] {
						if math.Float64bits(swept[w][i][c]) != math.Float64bits(want[i][c]) {
							t.Fatalf("%s: fork %d unit %d out %d swept %v, serial %v", label, w, i, c, swept[w][i][c], want[i][c])
						}
					}
				}
			}

			snap := make([][]float64, env.Len())
			for i, row := range env.Rows {
				snap[i] = append([]float64(nil), row...)
			}
			mutateRows(env, snap)
			retired = par
		}
	}
}

func repeatArgs(arg []float64, n int) [][]float64 {
	if arg == nil {
		return nil
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = arg
	}
	return out
}

// A threshold of zero must push every definition with relevant churn to
// the fallback path, leaving the provider to rebuild lazily — and the
// fallback counter must say so.
func TestMaintainFromThresholdFallback(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 9, 32, 20)
	prev := NewIndexed(an, env, rng.New(9).Tick(0))
	prev.Freeze()
	snap := make([][]float64, env.Len())
	for i, row := range env.Rows {
		snap[i] = append([]float64(nil), row...)
	}
	d := mutateRows(env, snap)

	maint := NewIndexed(an, env, rng.New(9).Tick(1))
	maint.MaintainFrom(prev, d, 0)
	if maint.Stats.MaintainFallbacks == 0 {
		t.Fatal("zero threshold should force fallbacks")
	}
}

// MaintainFrom must reject a provider over a different population.
func TestMaintainFromRejectsMismatch(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	envA := randomArmy(t, 6, 32, 20)
	envB := randomArmy(t, 6, 16, 20)
	prev := NewIndexed(an, envA, rng.New(6).Tick(0))
	prev.Freeze()
	cur := NewIndexed(an, envB, rng.New(6).Tick(1))
	if cur.MaintainFrom(prev, Delta{}, 1) {
		t.Fatal("MaintainFrom should reject mismatched populations")
	}
}

// TestRecycleCarriesUnclaimedStorage walks the chain of custody Recycle
// documents, membership group by membership group. A serial tick scans and
// builds lazily, so a group it never probes leaves its recycled index
// unclaimed — and the next tick must still find it (tick 2 below rebuilds
// into tick 0's storage for everything tick 1 skipped). After MaintainFrom,
// Recycle must leave the maintained groups alone: their partitions are
// live in the new provider, not spare. At every step the provider answers
// exactly like a fresh one.
func TestRecycleCarriesUnclaimedStorage(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 21, 48, 24)
	fresh := func(tick int64) *Indexed {
		p := NewIndexed(an, env, rng.New(21).Tick(tick))
		p.Freeze()
		return p
	}
	count := func(idxs []*groupIndex) int {
		n := 0
		for _, idx := range idxs {
			if idx != nil {
				n++
			}
		}
		return n
	}

	tick0 := fresh(0)
	built := count(tick0.groups)
	if built < 3 {
		t.Fatalf("kitchen sink has %d membership groups, the test needs at least 3", built)
	}

	tick1 := NewIndexed(an, env, rng.New(21).Tick(1))
	tick1.Recycle(tick0)
	probed := prog.Script.Agg("CountEnemiesInRange")
	tick1.EvalAgg(probed, env.Rows[0], []float64{8})
	if count(tick1.groups) != 1 || count(tick1.spare) != built-1 {
		t.Fatalf("after one lazy probe: %d groups scanned, %d spare; want 1 and %d", count(tick1.groups), count(tick1.spare), built-1)
	}

	tick2 := NewIndexed(an, env, rng.New(21).Tick(2))
	tick2.Recycle(tick1)
	if count(tick2.spare) != built {
		t.Fatalf("tick 2 inherited %d spare groups, want all %d (scanned and unclaimed alike)", count(tick2.spare), built)
	}
	tick2.Freeze()
	if count(tick2.spare) != 0 {
		t.Fatalf("Freeze left %d spare groups unclaimed", count(tick2.spare))
	}
	assertSameAnswers(t, "tick 2 (recycled)", prog, env, fresh(2), tick2)

	// A quarter of the rows gain maximum health: a membership column of
	// the wounded-friend group only (e.health < e.maxhealth). One row in
	// sixteen moves, which every group reads. At a threshold between the
	// two fractions the wounded group falls back and the rest maintain.
	s := env.Schema
	var d Delta
	for i, row := range env.Rows {
		var m uint64
		if i%4 == 1 {
			row[s.MustCol("maxhealth")]++
			m |= 1 << s.MustCol("maxhealth")
		}
		if i%16 == 0 {
			row[s.MustCol("posx")]++
			m |= 1 << s.MustCol("posx")
		}
		if m != 0 {
			d.Dirty, d.Masks = append(d.Dirty, i), append(d.Masks, m)
		}
	}
	tick3 := NewIndexed(an, env, rng.New(21).Tick(3))
	if !tick3.MaintainFrom(tick2, d, 0.15) || tick3.Stats.MaintainFallbacks == 0 {
		t.Fatalf("want a mix of maintained and fallen-back groups, got %d maintained, %d fallbacks",
			count(tick3.groups), tick3.Stats.MaintainFallbacks)
	}
	tick3.Recycle(tick2)
	for ord, idx := range tick3.groups {
		if idx != nil && tick3.spare[ord] != nil {
			t.Fatalf("group %d was maintained and is also spare: a rebuild would overwrite live partitions", ord)
		}
	}
	if count(tick3.spare) == 0 {
		t.Fatal("fallen-back groups left no storage to rebuild into")
	}
	tick3.Freeze()
	assertSameAnswers(t, "tick 3 (maintained + recycled)", prog, env, fresh(3), tick3)
}
