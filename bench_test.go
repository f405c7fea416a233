// Benchmarks regenerating the paper's evaluation (Section 6), one family
// per table/figure, plus the ablation studies listed in DESIGN.md. The
// full parameter sweeps with paper-style output live in cmd/benchfig;
// these testing.B benches cover the same code paths at benchmark-friendly
// sizes.
//
//	go test -bench=Fig10 -benchmem           # E1: scalability (Figure 10)
//	go test -bench=Density                   # E3: density insensitivity
//	go test -bench=Ablation                  # A1–A5
package sgl

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/grid"
	"github.com/epicscale/sgl/internal/index/kdtree"
	"github.com/epicscale/sgl/internal/index/rangetree"
	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/index/sweepline"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/workload"
)

// newBattle builds an engine for benchmarking; b.N ticks are then timed.
func newBattle(b testing.TB, mode Mode, n int, density float64, tweak func(*EngineOptions)) *Engine {
	b.Helper()
	prog, err := CompileBattle()
	if err != nil {
		b.Fatal(err)
	}
	spec := ArmySpec{Units: n, Density: density, Seed: 42, Formation: workload.BattleLines}
	opts := EngineOptions{
		Mode:         mode,
		Categoricals: game.Categoricals(),
		Seed:         42,
		Side:         spec.Side(),
		MoveSpeed:    1,
		// Pin the serial path so the paper-reproduction benchmarks stay
		// comparable to the single-threaded baseline on any machine;
		// BenchmarkTickParallel overrides this per run.
		Workers: 1,
	}
	if tweak != nil {
		tweak(&opts)
	}
	eng, err := NewEngine(prog, NewBattleMechanics(), GenerateArmy(spec), opts)
	if err != nil {
		b.Fatal(err)
	}
	// Let the armies engage so the steady-state workload is combat.
	if err := eng.Run(3); err != nil {
		b.Fatal(err)
	}
	return eng
}

func benchTicks(b *testing.B, mode Mode, n int, density float64) {
	benchTicksTuned(b, mode, n, density, nil)
}

// benchTicksTuned is benchTicks with the engine options tweaked.
func benchTicksTuned(b *testing.B, mode Mode, n int, density float64, tweak func(*EngineOptions)) {
	e := newBattle(b, mode, n, density, tweak)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Tick(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "unit-ticks/s")
}

// ---------------------------------------------------------------------------
// E1 — Figure 10: time per tick vs number of units at 1% density.

func BenchmarkFig10Naive250(b *testing.B)  { benchTicks(b, Naive, 250, 0.01) }
func BenchmarkFig10Naive500(b *testing.B)  { benchTicks(b, Naive, 500, 0.01) }
func BenchmarkFig10Naive1000(b *testing.B) { benchTicks(b, Naive, 1000, 0.01) }
func BenchmarkFig10Naive2000(b *testing.B) { benchTicks(b, Naive, 2000, 0.01) }

// The walker's decision phase: the interp tree walker over the naive
// O(n)-scan provider, unit at a time, on the battle the Naive rows tick.
// Naive ran exactly this before it became the compiled plan over scans,
// so the three families split Figure 10's ratio in two: Interp/Naive is
// interpretation, Naive/Indexed is indexing. These rows time the decision
// phase alone, which is nearly all of a walker tick.
func BenchmarkFig10Interp250(b *testing.B)  { benchWalkerDecision(b, 250) }
func BenchmarkFig10Interp500(b *testing.B)  { benchWalkerDecision(b, 500) }
func BenchmarkFig10Interp1000(b *testing.B) { benchWalkerDecision(b, 1000) }
func BenchmarkFig10Interp2000(b *testing.B) { benchWalkerDecision(b, 2000) }

func benchWalkerDecision(b *testing.B, n int) {
	e := newBattle(b, Naive, n, 0.01, nil)
	prog, env := e.Program(), e.Env()
	r := rng.New(42).Tick(e.TickCount())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := interp.New(prog, env, interp.NewNaive(prog, env, r), r)
		for _, unit := range env.Rows {
			if err := ev.RunUnit(unit, func([]float64) {}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "unit-ticks/s")
}

func BenchmarkFig10Indexed250(b *testing.B)   { benchTicks(b, Indexed, 250, 0.01) }
func BenchmarkFig10Indexed500(b *testing.B)   { benchTicks(b, Indexed, 500, 0.01) }
func BenchmarkFig10Indexed1000(b *testing.B)  { benchTicks(b, Indexed, 1000, 0.01) }
func BenchmarkFig10Indexed2000(b *testing.B)  { benchTicks(b, Indexed, 2000, 0.01) }
func BenchmarkFig10Indexed4000(b *testing.B)  { benchTicks(b, Indexed, 4000, 0.01) }
func BenchmarkFig10Indexed8000(b *testing.B)  { benchTicks(b, Indexed, 8000, 0.01) }
func BenchmarkFig10Indexed14000(b *testing.B) { benchTicks(b, Indexed, 14000, 0.01) }

// BenchmarkFig10Indexed32000 is the epic-scale row (ROADMAP item 16's
// target: 100 ms a tick at 32 000 units on two cores), serial and on two
// decision shards.
func BenchmarkFig10Indexed32000(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			benchTicksTuned(b, Indexed, 32000, 0.01, func(o *EngineOptions) { o.Workers = w })
		})
	}
}

// ---------------------------------------------------------------------------
// E3 — density sensitivity at n = 500 (paper Section 6.1).

func BenchmarkDensityNaive0_5(b *testing.B)   { benchTicks(b, Naive, 500, 0.005) }
func BenchmarkDensityNaive2(b *testing.B)     { benchTicks(b, Naive, 500, 0.02) }
func BenchmarkDensityNaive8(b *testing.B)     { benchTicks(b, Naive, 500, 0.08) }
func BenchmarkDensityIndexed0_5(b *testing.B) { benchTicks(b, Indexed, 500, 0.005) }
func BenchmarkDensityIndexed2(b *testing.B)   { benchTicks(b, Indexed, 500, 0.02) }
func BenchmarkDensityIndexed8(b *testing.B)   { benchTicks(b, Indexed, 500, 0.08) }

// ---------------------------------------------------------------------------
// A1 — aggregate index ablation: scan vs bucket grid vs layered range tree
// (with and without fractional cascading) on the same count-in-rect load.

func ablationPoints(n int, radius float64) ([]rangetree.Point, []float64, []geom.Rect) {
	st := rng.NewStream(rng.New(7), 3)
	side := math.Sqrt(float64(n) / 0.01)
	pts := make([]rangetree.Point, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = rangetree.Point{X: math.Floor(st.Float64() * side), Y: math.Floor(st.Float64() * side)}
		vals[i] = 1
	}
	probes := make([]geom.Rect, 1024)
	for i := range probes {
		c := geom.Point{X: st.Float64() * side, Y: st.Float64() * side}
		probes[i] = geom.RectAround(c, radius)
	}
	return pts, vals, probes
}

// A1 runs each structure at a Warcraft-scale sight (16 squares, few units
// visible) and a d20-scale sight (150 squares, thousands visible): the
// bucket grid wins small windows, the aggregate range tree wins large ones
// — exactly the paper's Section 3.2 argument for why d20 visibility needs
// the new index structures.
var ablationRadii = []struct {
	name   string
	radius float64
}{{"r16", 16}, {"r150", 150}}

var ablationSink float64

func BenchmarkAggIndexAblationScan(b *testing.B) {
	for _, ar := range ablationRadii {
		b.Run(ar.name, func(b *testing.B) {
			pts, vals, probes := ablationPoints(8000, ar.radius)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := probes[i%len(probes)]
				sum := 0.0
				for j, p := range pts {
					if p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY {
						sum += vals[j]
					}
				}
				ablationSink = sum
			}
		})
	}
}

func BenchmarkAggIndexAblationGrid(b *testing.B) {
	for _, ar := range ablationRadii {
		b.Run(ar.name, func(b *testing.B) {
			pts, vals, probes := ablationPoints(8000, ar.radius)
			gp := make([]geom.Point, len(pts))
			for i, p := range pts {
				gp[i] = geom.Point{X: p.X, Y: p.Y}
			}
			g := grid.Build(gp, 1, vals, 8)
			out := []float64{0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out[0] = 0
				g.Aggregate(probes[i%len(probes)], out)
				ablationSink = out[0]
			}
		})
	}
}

func BenchmarkAggIndexAblationRangeTree(b *testing.B) {
	for _, ar := range ablationRadii {
		b.Run(ar.name, func(b *testing.B) {
			pts, vals, probes := ablationPoints(8000, ar.radius)
			tr := rangetree.Build(pts, 1, vals)
			out := []float64{0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out[0] = 0
				tr.Aggregate(probes[i%len(probes)], out)
				ablationSink = out[0]
			}
		})
	}
}

func BenchmarkAggIndexAblationNoCascade(b *testing.B) {
	for _, ar := range ablationRadii {
		b.Run(ar.name, func(b *testing.B) {
			pts, vals, probes := ablationPoints(8000, ar.radius)
			tr := rangetree.Build(pts, 1, vals)
			out := []float64{0}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out[0] = 0
				tr.AggregateNoCascade(probes[i%len(probes)], out)
				ablationSink = out[0]
			}
		})
	}
}

// ---------------------------------------------------------------------------
// A2 — MIN via sweepline vs per-probe scan.

func BenchmarkMinAblationSweep(b *testing.B) {
	pts, _, _ := ablationPoints(4000, 16)
	sites := make([]sweepline.Site, len(pts))
	vals := make([]float64, len(pts))
	probes := make([]sweepline.Probe, len(pts))
	for i, p := range pts {
		sites[i], vals[i] = sweepline.Site{X: p.X, Y: p.Y, Key: int64(i)}, float64(i%97)
		probes[i] = sweepline.Probe{X: p.X, Y: p.Y, RX: 16, Exclude: sweepline.NoExclude}
	}
	// One pass from scratch, as a tick pays it: sort the point set, then
	// sweep every probe over it.
	var order sweepline.Order
	var sw sweepline.Sweeper
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.Rebuild(sites)
		sw.Sweep(&order, vals, probes, 16, segtree.Min)
	}
}

func BenchmarkMinAblationScan(b *testing.B) {
	pts, _, _ := ablationPoints(4000, 16)
	vals := make([]float64, len(pts))
	for i := range vals {
		vals[i] = float64(i % 97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One full all-probes pass, like one Sweep call.
		for _, q := range pts {
			best := math.Inf(1)
			for j, p := range pts {
				if math.Abs(p.X-q.X) <= 16 && math.Abs(p.Y-q.Y) <= 16 && vals[j] < best {
					best = vals[j]
				}
			}
			ablationSink = best
		}
	}
}

// ---------------------------------------------------------------------------
// A3 — nearest neighbour: kD-tree vs scan.

func BenchmarkNNAblationKDTree(b *testing.B) {
	pts, _, _ := ablationPoints(8000, 16)
	kp := make([]kdtree.Point, len(pts))
	for i, p := range pts {
		kp[i] = kdtree.Point{X: p.X, Y: p.Y, Key: int64(i)}
	}
	tr := kdtree.Build(kp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := kp[i%len(kp)]
		tr.Nearest(q.X, q.Y, q.Key)
	}
}

func BenchmarkNNAblationScan(b *testing.B) {
	pts, _, _ := ablationPoints(8000, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := pts[i%len(pts)]
		best := math.Inf(1)
		for j, p := range pts {
			if j == i%len(pts) {
				continue
			}
			d := (p.X-q.X)*(p.X-q.X) + (p.Y-q.Y)*(p.Y-q.Y)
			if d < best {
				best = d
			}
		}
		ablationSink = best
	}
}

// ---------------------------------------------------------------------------
// A4 — Section 5.4 effect index vs per-performer area application, on a
// healer-heavy army where auras overlap heavily.

func benchHealerArmy(b *testing.B, disableDefer bool) {
	prog, err := CompileBattle()
	if err != nil {
		b.Fatal(err)
	}
	spec := ArmySpec{Units: 3000, Density: 0.04, Seed: 42, Formation: workload.BattleLines, Mix: [3]int{1, 1, 4}}
	eng, err := NewEngine(prog, NewBattleMechanics(), GenerateArmy(spec), EngineOptions{
		Mode:             Indexed,
		Categoricals:     game.Categoricals(),
		Seed:             42,
		Side:             spec.Side(),
		MoveSpeed:        1,
		DisableAreaDefer: disableDefer,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(3); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEffectCombineDeferred(b *testing.B) { benchHealerArmy(b, false) }
func BenchmarkEffectCombineDirect(b *testing.B)   { benchHealerArmy(b, true) }

// ---------------------------------------------------------------------------
// A5 — per-tick index construction cost (the paper rebuilds from scratch
// every tick and argues the overhead is low).

func BenchmarkIndexBuild8000(b *testing.B) {
	pts, vals, _ := ablationPoints(8000, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rangetree.Build(pts, 1, vals)
	}
}

// ---------------------------------------------------------------------------
// A6 — set-at-a-time plan execution vs unit-at-a-time interpretation, both
// over the *indexed* provider: isolates the plan executor's contribution
// from the index structures'.

func BenchmarkDecisionSetAtATime(b *testing.B) { benchTicks(b, Indexed, 2000, 0.01) }

func BenchmarkDecisionUnitAtATime(b *testing.B) {
	// Unit-at-a-time with indexed aggregates: interpreter + Indexed
	// provider, measured on the decision phase only.
	prog, err := CompileBattle()
	if err != nil {
		b.Fatal(err)
	}
	spec := ArmySpec{Units: 2000, Density: 0.01, Seed: 42, Formation: workload.BattleLines}
	env := GenerateArmy(spec)
	an := exec.NewAnalyzer(prog, game.Categoricals())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rng.New(42).Tick(int64(i))
		prov := exec.NewIndexed(an, env, r)
		ev := interp.New(prog, env, prov, r)
		for _, unit := range env.Rows {
			if err := ev.RunUnit(unit, func([]float64) {}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEngineTickNaiveVsIndexed(b *testing.B) {
	b.Run("naive-1000", func(b *testing.B) { benchTicks(b, Naive, 1000, 0.01) })
	b.Run("indexed-1000", func(b *testing.B) { benchTicks(b, Indexed, 1000, 0.01) })
}

// ---------------------------------------------------------------------------
// P1 — parallel sharded tick execution: throughput vs worker count. The
// determinism tests prove every P produces bit-identical environments, so
// this measures pure speedup. Worker counts above the machine's core count
// measure goroutine overhead, not parallelism — on a multicore box the
// Workers=4 rows should show the ≥ 2× gain over Workers=1 at 10k units.
//
// The battle is a high-churn workload: index maintenance falls back to a
// rebuild on nearly every structure, keeping what the per-definition
// column masks still salvage (stationary melee lines leave position-keyed
// trees clean). The dedicated low-churn measurement is
// BenchmarkTickIncrementalSentry.
//
//	go test -bench=TickParallel -benchtime=10x

func BenchmarkTickParallel(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				e := newBattle(b, Indexed, n, 0.01, func(o *EngineOptions) { o.Workers = w })
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := e.Tick(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "unit-ticks/s")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// P2 — incremental index maintenance on a low-churn workload: a garrison
// of knights and archers watches the opposing knight line (three
// aggregate probes per unit per tick over trees partitioned by player and
// unit type) while a small scout detachment — 1 unit in 25 — random-walks
// the map. A rebuild would reconstruct every tree from all n units each
// tick; maintenance rebuilds only the scouts' partitions and reuses the
// rest, which is where the ≥ 1.3× tick speedup at 10k units over
// rebuilding comes from (multicore or not — the win is build work
// removed, not parallelism; internal/engine's BenchmarkTickIncremental500
// keeps a rebuilding row).
//
//	go test -bench=TickIncrementalSentry -benchtime=20x

// sentryMix is the garrison's unit mix: 1 scout in 25. The zero mix is
// the daemon's default 3:2:1, 1 scout in 6.
var sentryMix = [3]int{20, 4, 1}

func newSentry(b testing.TB, n int, workers int, mix [3]int) *Engine {
	b.Helper()
	prog, err := CompileScript(game.PatrolScript, game.Schema(), game.Consts())
	if err != nil {
		b.Fatal(err)
	}
	spec := ArmySpec{Units: n, Density: 0.01, Seed: 42, Formation: workload.BattleLines, Mix: mix}
	eng, err := NewEngine(prog, NewBattleMechanics(), GenerateArmy(spec), EngineOptions{
		Mode:         Indexed,
		Categoricals: game.Categoricals(),
		Seed:         42,
		Side:         spec.Side(),
		MoveSpeed:    1,
		Workers:      workers,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(3); err != nil { // let maintenance engage (needs 2 ticks)
		b.Fatal(err)
	}
	return eng
}

// submitMoraleSets submits this tick's share of the benchmark actor's
// traffic (bench/workloads.go): k set-morale commands on a small fixed
// set of keys, values strictly rising.
func submitMoraleSets(tb testing.TB, e *Engine, k int) {
	tb.Helper()
	n, t := int64(e.Env().Len()), e.TickCount()
	for j := int64(0); j < int64(k); j++ {
		c := Command{Op: OpSet, Key: (int64(k)*t + j) % 16 * (n / 16), Col: "morale", Val: float64(100 + int64(k)*t + j)}
		if err := e.Submit("actor", c); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestTickAllocRatchet is the engine-level sibling of the executor's
// TestStreamingAllocRatchet (internal/algebra): a steady-state tick of the
// low-churn world — serial, indexed, maintained, 2000 units — allocates a
// few dozen objects, none of them per unit. What is left is per dirty
// partition (maintained index structures), per tick (the provider, the
// published read view) or per effect-free bookkeeping; the key index, the
// executor's row storage and call memos, the accumulator, the movement buffers
// and the occupancy table all persist. Measured 64 allocs/tick when
// introduced (1017 at the parent commit, which rebuilt all of those every
// tick), 60 before membership groups (PR 21) gave a partition's
// definitions one set of structures and the kD-tree its recycled storage,
// 28 after; the ceiling only moves down.
//
// The second window runs the benchmark actor's rate, three morale sets a
// tick (submitted outside the measurement: admission is not the tick).
// Applying them used to allocate a row map, a row slice and two merged
// delta slices per tick, and their all-columns masks rebuilt the edited
// knights' partitions (53 allocs/tick when introduced); the edited rows
// and the delta now live in engine scratch and a morale edit rebuilds
// nothing, so a command tick allocates what a quiet one does. Since the
// garrison's calls carry from tick to tick, the probe-invariant OwnLine
// is no longer answered, and its two per-tick memo entries went (26).
// Serial is one decision shard of the sharded code, which keeps its
// shard boundaries and effect buffers on the engine (25). Maintenance
// used to run before the provider inherited its predecessor's scratch,
// so every partition it rebuilt grew fresh build buffers, and it kept
// its per-group classification in three maps; both now live in the
// inherited scratch (11). Post-processing and move planning became one
// pass, its deaths counted in the shard outputs, and the movement
// permutation is drawn into a kept buffer (8).
func TestTickAllocRatchet(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newSentry(t, 2000, 1, sentryMix)
	if err := e.Run(5); err != nil { // past the ticks that size the scratch
		t.Fatal(err)
	}
	// The slack in each ceiling absorbs runtime-version noise, not
	// regressions.
	for _, w := range []struct {
		name    string
		cmds    int
		ceiling float64
	}{
		{"quiet", 0, 13},                 // measured 8
		{"under command traffic", 3, 13}, // measured 8
	} {
		const ticks = 20
		var mallocs uint64
		for i := 0; i <= ticks; i++ { // the first tick sizes the window's scratch
			submitMoraleSets(t, e, w.cmds)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			if i > 0 {
				mallocs += m1.Mallocs - m0.Mallocs
			}
		}
		allocs := float64(mallocs) / ticks
		t.Logf("%s: steady-state allocs per tick over %d units: %.0f", w.name, e.Env().Len(), allocs)
		if allocs > w.ceiling {
			t.Errorf("%s: tick allocates %.0f objects (ceiling %.0f): per-tick scratch is being rebuilt again", w.name, allocs, w.ceiling)
		}
	}
}

// TestBattleTickAllocRatchet is the same ratchet for the high-churn world:
// the 2000-unit battle, serial, where maintenance falls back to a rebuild
// on nearly every index every tick. The tick
// rebuilds its range trees and sweep orders into the storage the previous
// tick's provider retired with, and probes on scratch inherited the same
// way — kD-trees included, since PR 21 — so what it still allocates is
// per tick (the provider, the read view) or per batched aggregate call
// (one result block): nothing per tree node, per probe or per sweep.
// Measured 41 allocs/tick when introduced, against ≈100 000 at the parent
// commit (a node object and five slices per range-tree node, four slices
// per batched probe); 39 before membership groups, 30 after, 21 once call
// classes stopped repeating sweeps and the executor kept its batch
// scratch, 20 once the serial tick became one shard of the sharded
// decision phase, its shard boundaries and effect buffers kept on the
// engine; 21 once the read view kept a position column, whose base
// and changed-row list are allocated at each full copy of the view's
// rows — on this high-churn battle, about every other tick; 18 once
// post-processing and move planning became one pass and the movement
// permutation a kept buffer. The ceilings only move down.
//
// Two windows. The first (ticks 11–31 of the seeded battle) is before the
// lines meet: it holds what the index layer and the tick's bookkeeping
// allocate (a sweep's probe set lives in executor storage; only the
// provider's result block is new). The second (ticks 201–221) is the
// height of the battle, where units flee, regroup and strike: every
// MoveAway/MoveToward performer passes a record-valued argument, and
// expr's record arithmetic used to allocate the record again for each of
// its fields — 1 766 objects a tick in this window. A record field now
// runs its own component's closure over the call memo's storage, so this
// window holds what fighting adds (more sweeps, so more
// result blocks) and nothing per performer.
func TestBattleTickAllocRatchet(t *testing.T) {
	e := newBattle(t, Indexed, 2000, 0.01, func(o *EngineOptions) { o.Workers = 1 })
	// The slack in each ceiling absorbs runtime-version noise, not
	// regressions.
	for _, w := range []struct {
		name    string
		from    int
		ceiling float64
	}{
		{"before the lines meet", 10, 22}, // measured 18
		{"height of the battle", 200, 29}, // measured 25
	} {
		if err := e.Run(w.from - e.Stats.Ticks); err != nil { // the first run also sizes the storage
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: allocs per tick over %d units: %.0f", w.name, e.Env().Len(), allocs)
		if allocs > w.ceiling {
			t.Errorf("%s: tick allocates %.0f objects (ceiling %.0f): index storage, probe scratch or record arithmetic is allocating again",
				w.name, allocs, w.ceiling)
		}
	}
}

// TestBattleWorkRatchet is the work ratchet of the battle's index
// rebuilds and range probes: the 2000-unit battle, serial, ticks 300–320,
// where every range tree and sweep ordering is rebuilt each tick over
// units that moved at most one square. A rebuild re-sorts from the
// structure's previous order, so its points move few places each and the
// move budget is rarely spent (sorted.Resort); a range probe finds its
// four bounds through the trees' guides, not by binary search over every
// point (sorted.Guide). Measured when introduced: 3.6 comparisons per
// range probe (38.5 by binary search over the whole slice, at the parent
// commit), 1.8 element moves per re-sorted point, 0.40 full-sort
// fallbacks per tick. The counts are exact for the seed; the slack in
// each ceiling leaves room for changes to the world, not for
// regressions. The ceilings only move down.
func TestBattleWorkRatchet(t *testing.T) {
	e := newBattle(t, Indexed, 2000, 0.01, func(o *EngineOptions) { o.Workers = 1 })
	const from, ticks = 300, 20
	if err := e.Run(from - e.Stats.Ticks); err != nil {
		t.Fatal(err)
	}
	before := e.Stats.IndexStats
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	is := e.Stats.IndexStats
	diff := func(v, w int) float64 { return float64(v - w) }
	probes, resorted := diff(is.TreeProbes, before.TreeProbes), diff(is.ResortedPoints, before.ResortedPoints)
	if probes == 0 || resorted == 0 {
		t.Fatalf("%v range probes and %v re-sorted points over ticks %d–%d: the battle no longer exercises the guides or the re-sort", probes, resorted, from, from+ticks)
	}
	for _, c := range []struct {
		name     string
		got, max float64
	}{
		{"bound-search comparisons per range probe", diff(is.BoundSteps, before.BoundSteps) / probes, 4.5},
		{"elements moved per re-sorted point", diff(is.ResortMoves, before.ResortMoves) / resorted, 2.25},
		{"full-sort fallbacks per tick", diff(is.ResortFallbacks, before.ResortFallbacks) / ticks, 0.5},
	} {
		t.Logf("%s: %.3f (ceiling %g)", c.name, c.got, c.max)
		if c.got > c.max {
			t.Errorf("%s: %.3f, ceiling %g", c.name, c.got, c.max)
		}
	}
	t.Logf("per tick: %.0f range probes, %.0f builds, %.0f sweeps, %.0f kD probes, %.0f re-sorted points",
		probes/ticks, diff(is.IndexBuilds, before.IndexBuilds)/ticks, diff(is.Sweeps, before.Sweeps)/ticks,
		diff(is.KDProbes, before.KDProbes)/ticks, resorted/ticks)
}

// zoneQuery is the spectator's question the read-side ratchet and the
// fan-out benchmark ask: a windowed divisible aggregate.
const zoneQuery = `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`

// TestFirstReadAllocRatchet is the read side's ratchet: the first Zone
// read on a freshly published view — the only read a view gets when the
// clock outruns its spectators — allocates the view's position column
// (unless no row changed since its last full copy) and one probe's
// scratch: no index, no membership, no row list. Two worlds: the
// 2000-unit battle, and the 10 000-unit patrol of the repository
// benchmark's sentry-tick. Measured ≈104 KB on the battle when
// introduced, against ≈1.72 MB at the parent commit (a whole layered
// range tree plus a key map per read); ≈21 KB once views kept a position
// column and a query with no filter stopped scanning its membership (the
// patrol: ≈155 KB, from ≈570 KB — its 160 KB column is copied on most
// first reads, the battle's full copies are frequent enough that its
// column is often read as it stands). The ceilings only move down.
func TestFirstReadAllocRatchet(t *testing.T) {
	q, err := CompileQuery(zoneQuery, BattleSchema(), BattleConsts())
	if err != nil {
		t.Fatal(err)
	}
	// The slack in each ceiling absorbs runtime-version noise, not
	// regressions.
	for _, w := range []struct {
		name    string
		world   func() *Engine
		ceiling uint64
	}{
		{"battle n2000", func() *Engine {
			return newBattle(t, Indexed, 2000, 0.01, func(o *EngineOptions) { o.Workers = 1 })
		}, 32 << 10}, // measured ≈21 KB
		{"patrol n10000", func() *Engine { return newSentry(t, 10000, 1, [3]int{}) }, 192 << 10}, // measured ≈155 KB
	} {
		e := w.world()
		if _, err := e.ReadView().Query(q, World(), 40, 40, 12); err != nil { // the query's analyzer is per engine, not per view
			t.Fatal(err)
		}
		const views = 10
		var bytes uint64
		var before, after runtime.MemStats
		for i := 0; i < views; i++ {
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&before)
			if _, err := e.ReadView().Query(q, World(), float64(7*i%97), float64(13*i%89), 12); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		perRead := bytes / views
		t.Logf("%s: first read on a fresh view of %d units allocates %d bytes", w.name, e.Env().Len(), perRead)
		if perRead > w.ceiling {
			t.Errorf("%s: first read allocates %d bytes (ceiling %d): a fresh view is scanning or building again to answer one probe",
				w.name, perRead, w.ceiling)
		}
	}
}

// The /cmds rows add the benchmark actor's traffic, three morale sets a
// tick, to the patrol world — the half of the sentry workload the
// traced tick loop in bench/ does not submit — and report index builds per
// tick: a morale edit rebuilds nothing, so they match the quiet rows'.
// Every row reports range-tree probes, kD-tree probes and carried answers
// per tick: the garrison's calls over the clean knight lines carry from tick to tick, and the tree probes left are the
// scouts'; every unit's NearestScout searches the kD-trees of the moving
// scouts, which nothing carries. The last row, cmds-mix3:2:1, is the
// repository benchmark's sentry-tick world at the daemon's default mix:
// 833 scouts a player, against the garrison rows' 200.
func BenchmarkTickIncrementalSentry(b *testing.B) {
	type row struct {
		n, w int
		cmds int
		mix  [3]int
		name string
	}
	var rows []row
	for _, n := range []int{2000, 10000} {
		for _, w := range []int{1, 4} {
			rows = append(rows, row{n, w, 0, sentryMix, fmt.Sprintf("n%d/w%d", n, w)},
				row{n, w, 3, sentryMix, fmt.Sprintf("n%d/w%d/cmds", n, w)})
		}
	}
	rows = append(rows, row{10000, 1, 3, [3]int{}, "n10000/w1/cmds-mix3:2:1"})
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			e := newSentry(b, r.n, r.w, r.mix)
			before := e.Stats.IndexStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitMoraleSets(b, e, r.cmds)
				if err := e.Tick(); err != nil {
					b.Fatal(err)
				}
			}
			is := e.Stats.IndexStats
			perTick := func(v int) float64 { return float64(v) / float64(b.N) }
			b.ReportMetric(float64(r.n)/b.Elapsed().Seconds()*float64(b.N), "unit-ticks/s")
			b.ReportMetric(perTick(is.IndexBuilds-before.IndexBuilds), "builds/tick")
			b.ReportMetric(perTick(is.TreeProbes-before.TreeProbes), "tree-probes/tick")
			b.ReportMetric(perTick(is.KDProbes-before.KDProbes), "kd-probes/tick")
			b.ReportMetric(perTick(is.CertifiedAnswers-before.CertifiedAnswers), "certified/tick")
			b.ReportMetric(perTick(is.CarriedAnswers-before.CarriedAnswers), "carried/tick")
			b.ReportMetric(float64(e.Stats.DirtyRows)/float64(e.Stats.Ticks), "dirty-rows/tick")
		})
	}
}

// ---------------------------------------------------------------------------
// S1 — observation-query fan-out: per-query cost of serving spectators
// against the live world. A read view builds no index (engine/query.go):
// /indexed is one view probed over and over, every probe a one-shot
// evaluation against the query's membership; /scan pays the naive O(n)
// evaluation per query. The /first and /fanout64 rows take a fresh view
// per iteration (a tick runs, untimed, in between) and give the cost of
// its first 1 or 64 probes — ns/op is per view:
//
//	first    = S + O          S: membership scan, O: one one-shot probe
//	fanout64 = S + 64·O
//
// An index over the view would replace O by a ≈1 µs tree probe at the
// price of one build (rangetree's BenchmarkBuild: the same two-column
// tree over 10 000 points), so build ÷ O is the per-(query, view)
// fan-out past which building would pay:
//
//	go test -run xxx -bench=QueryFanout -benchtime=200x

func BenchmarkQueryFanout(b *testing.B) {
	q, err := CompileQuery(zoneQuery, BattleSchema(), BattleConsts())
	if err != nil {
		b.Fatal(err)
	}
	// fresh times the first probes of a view published by an untimed tick.
	fresh := func(b *testing.B, e *Engine, probes int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := e.Tick(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for k := 0; k < probes; k++ {
				j := i*probes + k
				if _, err := e.ReadView().Query(q, World(), float64(7*j%97), float64(13*j%89), 12); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for _, n := range []int{2000, 10000} {
		e := newBattle(b, Indexed, n, 0.01, nil)
		for _, scan := range []bool{false, true} {
			mode := "indexed"
			if scan {
				mode = "scan"
			}
			b.Run(fmt.Sprintf("n%d/%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x, y := float64(7*i%97), float64(13*i%89)
					var err error
					if scan {
						_, err = e.ReadView().QueryScan(q, World(), x, y, 12)
					} else {
						_, err = e.ReadView().Query(q, World(), x, y, 12)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		for _, fan := range []struct {
			name   string
			probes int
		}{{"first", 1}, {"fanout64", 64}} {
			b.Run(fmt.Sprintf("n%d/%s", n, fan.name), func(b *testing.B) { fresh(b, e, fan.probes) })
		}
	}
	// The repository benchmark's sentry-tick world: the 10 000-unit
	// patrol at the daemon's default mix, serial.
	patrol := newSentry(b, 10000, 1, [3]int{})
	b.Run("patrol-n10000/first", func(b *testing.B) { fresh(b, patrol, 1) })
}
