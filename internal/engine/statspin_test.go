package engine

import (
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// TestIndexStatsPinned pins which path answers each probe: the exact
// exec.Stats totals, every field, of runs that between them take every
// path a probe can take — a scan of the matched partitions, and each
// class's built read and one-shot, counted apart. The battle (500
// units, serial, seed 42, ticks 1–40) builds, sweeps and probes range
// trees, the fold, kD-trees and extrema, re-sorts from last tick's order and counts the guides' bound
// steps; the patrol world of TestCarryMatchesRebuildUnderCommands and the
// zoo's carried-answers world, maintained at Workers 1, carry answers and
// certify nearest ones, and the battle maintained in the same setting
// patches structures in place; every zoo definition through a
// FreezeUnbuilt fork answers a fixed probe set one-shot. The counts are a
// function of the program, the rows and the seed, so any change to them
// means a probe went down another path (or a structure was built, reused
// or patched where it was not): a refactor of the index classes must
// leave every one of them where it is.
func TestIndexStatsPinned(t *testing.T) {
	check := func(t *testing.T, got, want exec.Stats) {
		t.Helper()
		if got != want {
			t.Errorf("index stats moved:\n got %+v\nwant %+v", got, want)
		}
	}
	t.Run("battle", func(t *testing.T) {
		e := newEngine(t, battleProg(t), 500, Indexed, 42, func(o *Options) { o.Workers = 1 })
		if err := e.Run(40); err != nil {
			t.Fatal(err)
		}
		check(t, e.Stats.IndexStats, exec.Stats{IndexBuilds: 407, IndexReuses: 1, IndexPatches: 0, MaintainFallbacks: 429, TreeProbes: 50920, KDProbes: 19282, ExtProbes: 8, Sweeps: 552, ScanProbes: 0, PartScans: 0, TreeOnce: 0, FoldOnce: 0, KDOnce: 0, ExtOnce: 0, CarriedAnswers: 4, CertifiedAnswers: 0, ResortedPoints: 68331, ResortMoves: 18109, ResortFallbacks: 0, BoundSteps: 243322})
	})
	// Maintained at threshold 1: the patrol and the zoo's carried-answers
	// world carry and certify answers, and the battle patches range trees
	// and folds in place.
	for _, world := range []struct {
		name string
		prog *sem.Program
		want exec.Stats
	}{
		{"patrol", compileZoo(t, game.PatrolScript), exec.Stats{IndexBuilds: 124, IndexReuses: 236, IndexPatches: 0, MaintainFallbacks: 0, TreeProbes: 290, KDProbes: 1494, ExtProbes: 0, Sweeps: 0, ScanProbes: 0, PartScans: 0, TreeOnce: 0, FoldOnce: 0, KDOnce: 0, ExtOnce: 0, CarriedAnswers: 33984, CertifiedAnswers: 15786, ResortedPoints: 0, ResortMoves: 0, ResortFallbacks: 0, BoundSteps: 864}},
		{"carried-answers", compileZoo(t, zooSrc(t, "carried-answers")), exec.Stats{IndexBuilds: 239, IndexReuses: 241, IndexPatches: 0, MaintainFallbacks: 0, TreeProbes: 551, KDProbes: 1864, ExtProbes: 120, Sweeps: 71, ScanProbes: 0, PartScans: 14951, TreeOnce: 0, FoldOnce: 0, KDOnce: 0, ExtOnce: 0, CarriedAnswers: 13489, CertifiedAnswers: 13185, ResortedPoints: 0, ResortMoves: 0, ResortFallbacks: 0, BoundSteps: 2712}},
		{"battle-maintained", battleProg(t), exec.Stats{IndexBuilds: 476, IndexReuses: 2, IndexPatches: 236, MaintainFallbacks: 0, TreeProbes: 53233, KDProbes: 12357, ExtProbes: 114, Sweeps: 677, ScanProbes: 0, PartScans: 0, TreeOnce: 0, FoldOnce: 0, KDOnce: 0, ExtOnce: 0, CarriedAnswers: 0, CertifiedAnswers: 0, ResortedPoints: 67419, ResortMoves: 22857, ResortFallbacks: 0, BoundSteps: 194676}},
	} {
		t.Run(world.name, func(t *testing.T) {
			const n, seed = 300, 5
			spec := workload.Spec{Units: n, Density: 0.01, Seed: seed, Formation: workload.BattleLines, Mix: [3]int{20, 4, 1}}
			e, err := New(world.prog, game.NewMechanics(), workload.Generate(spec), Options{
				Mode: Indexed, Categoricals: game.Categoricals(), Seed: seed, Side: spec.Side(), MoveSpeed: 1,
				Workers: 1, threshold: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(60); err != nil {
				t.Fatal(err)
			}
			check(t, e.Stats.IndexStats, world.want)
		})
	}
	t.Run("zoo-unbuilt", func(t *testing.T) {
		env := workload.Generate(workload.Spec{Units: 120, Density: 0.08, Seed: 7, Formation: workload.BattleLines})
		probes := append([][]float64(nil), env.Rows...)
		kc, xc, yc := env.Schema.KeyCol(), env.Schema.MustCol("posx"), env.Schema.MustCol("posy")
		for _, at := range [][2]float64{{0, 0}, {3, 7}, {5.5, 5.5}, {40, 2}} {
			row := make([]float64, env.Schema.NumAttrs())
			row[kc], row[xc], row[yc] = -1, at[0], at[1]
			probes = append(probes, row)
		}
		r := rng.New(7).Tick(1)
		var total exec.Stats
		for _, zp := range exec.Zoo {
			prog := compileZoo(t, zp.Src)
			an := exec.NewAnalyzer(prog, game.Categoricals())
			for _, def := range prog.Script.Aggs {
				args := make([]float64, len(def.Params)-1)
				for i := range args {
					args[i] = 6
				}
				p := exec.NewIndexed(an, env, r)
				p.FreezeUnbuilt(def)
				f := p.Fork()
				for _, unit := range probes {
					f.EvalAgg(def, unit, args)
				}
				total.Add(p.Stats)
				total.Add(f.Stats)
			}
		}
		check(t, total, exec.Stats{IndexBuilds: 0, IndexReuses: 0, IndexPatches: 0, MaintainFallbacks: 0, TreeProbes: 0, KDProbes: 0, ExtProbes: 0, Sweeps: 0, ScanProbes: 0, PartScans: 992, TreeOnce: 1240, FoldOnce: 6, KDOnce: 496, ExtOnce: 10, CarriedAnswers: 0, CertifiedAnswers: 0, ResortedPoints: 0, ResortMoves: 0, ResortFallbacks: 0, BoundSteps: 0})
	})
}
