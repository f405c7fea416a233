package main

import (
	"fmt"
	"io"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// runner measures battle-simulation performance for the paper's
// evaluation (Section 6):
//
//   - Figure 10: time per tick as the unit count grows, grid sized for
//     constant density, for both the naive and the indexed engine;
//   - the 10-ticks-per-second capacity claim ("the naive system does not
//     scale to 1100 units on this processor, while the indexed system
//     scales to more than 12000");
//   - the density experiment (unit count fixed, density varied);
//   - the proportionality check ("proportional to the number of ticks
//     simulated, to within one percent");
//   - Figure 1's expressiveness tiers (fig1.go).
//
// Every measurement runs the engine serially, as the paper's numbers do.
type runner struct {
	prog *sem.Program
	// warmup ticks run before timing starts (index caches, branch
	// predictors; also lets the armies engage so the workload is combat,
	// not marching).
	warmup int
}

// newRunner compiles the battle simulation once for all measurements.
func newRunner() (*runner, error) {
	prog, err := game.Compile()
	if err != nil {
		return nil, err
	}
	return &runner{prog: prog, warmup: 3}, nil
}

// newEngine builds a fresh engine for one measurement.
func (r *runner) newEngine(mode engine.Mode, n int, density float64, seed uint64) (*engine.Engine, error) {
	spec := workload.Spec{Units: n, Density: density, Seed: seed, Formation: workload.BattleLines}
	return engine.New(r.prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
		Mode:         mode,
		Categoricals: game.Categoricals(),
		Seed:         seed,
		Side:         spec.Side(),
		MoveSpeed:    1,
		Workers:      1,
	})
}

// tickSeconds returns the measured wall-clock seconds per tick for the
// given configuration, averaged over measureTicks ticks after warmup,
// and the decision phase's work over those ticks as the evaluator
// counted it — a function of the world and the seed alone.
func (r *runner) tickSeconds(mode engine.Mode, n int, density float64, measureTicks int, seed uint64) (float64, exec.Stats, error) {
	e, err := r.newEngine(mode, n, density, seed)
	if err != nil {
		return 0, exec.Stats{}, err
	}
	if err := e.Run(r.warmup); err != nil {
		return 0, exec.Stats{}, err
	}
	before := e.Stats.IndexStats // count the measured ticks alone
	start := time.Now()
	if err := e.Run(measureTicks); err != nil {
		return 0, exec.Stats{}, err
	}
	return time.Since(start).Seconds() / float64(measureTicks), e.Stats.IndexStats.Since(before), nil
}

// fig10Row is one point of the Figure 10 series.
type fig10Row struct {
	units          int
	mode           string
	secondsPerTick float64
	// total500 scales to the paper's reporting unit: seconds of real time
	// to simulate 500 clock ticks.
	total500 float64
	// work is what the measured ticks did, counted: the shape of the
	// curve read off the work itself, whatever the machine's clock says.
	work exec.Stats
}

// fig10 measures both engines across the given unit counts at the given
// density (the paper uses 1%). measureTicks trades accuracy for runtime.
// naiveCap skips the naive engine above that many units (the paper's
// figure also stops the naive curve early; quadratic growth makes large
// naive points prohibitively slow).
func (r *runner) fig10(sizes []int, density float64, measureTicks, naiveCap int) ([]fig10Row, error) {
	var rows []fig10Row
	for _, n := range sizes {
		for _, mode := range []engine.Mode{engine.Naive, engine.Indexed} {
			if mode == engine.Naive && naiveCap > 0 && n > naiveCap {
				continue
			}
			s, w, err := r.tickSeconds(mode, n, density, measureTicks, 42)
			if err != nil {
				return nil, err
			}
			rows = append(rows, fig10Row{units: n, mode: mode.String(), secondsPerTick: s, total500: s * 500, work: w})
		}
	}
	return rows, nil
}

// writeFig10 renders the series as a paper-style table, the measured
// ticks' counted work beside their seconds: rows scanned (every row per
// scanning probe), and range-tree, kD-tree and sweep probes.
func writeFig10(w io.Writer, rows []fig10Row) {
	fmt.Fprintf(w, "%-8s %-8s %14s %16s %14s %12s %10s %8s\n",
		"units", "engine", "sec/tick", "sec/500 ticks", "rows scanned", "tree probes", "kd probes", "sweeps")
	for _, row := range rows {
		fmt.Fprintf(w, "%-8d %-8s %14.6f %16.2f %14d %12d %10d %8d\n", row.units, row.mode, row.secondsPerTick, row.total500,
			row.work.ScanProbes*row.units, row.work.TreeProbes, row.work.KDProbes, row.work.Sweeps)
	}
}

// densityRow is one point of the density experiment.
type densityRow struct {
	units          int
	density        float64
	mode           string
	secondsPerTick float64
}

// density fixes the unit count and varies occupancy, as in Section 6.1
// "Varying Unit Density" (n=500, 0.5%–8%).
func (r *runner) density(n int, densities []float64, measureTicks int) ([]densityRow, error) {
	var rows []densityRow
	for _, d := range densities {
		for _, mode := range []engine.Mode{engine.Naive, engine.Indexed} {
			s, _, err := r.tickSeconds(mode, n, d, measureTicks, 42)
			if err != nil {
				return nil, err
			}
			rows = append(rows, densityRow{units: n, density: d, mode: mode.String(), secondsPerTick: s})
		}
	}
	return rows, nil
}

// writeDensity renders the density table.
func writeDensity(w io.Writer, rows []densityRow) {
	fmt.Fprintf(w, "%-8s %-9s %-8s %14s\n", "units", "density", "engine", "sec/tick")
	for _, row := range rows {
		fmt.Fprintf(w, "%-8d %-9.3f %-8s %14.6f\n", row.units, row.density, row.mode, row.secondsPerTick)
	}
}

// capacity binary-searches the largest unit count whose tick time stays
// within budget (the paper's 10 ticks/second ⇒ 100 ms), between lo and hi.
func (r *runner) capacity(mode engine.Mode, budget time.Duration, lo, hi, measureTicks int) (int, error) {
	fits := func(n int) (bool, error) {
		s, _, err := r.tickSeconds(mode, n, 0.01, measureTicks, 42)
		if err != nil {
			return false, err
		}
		return s <= budget.Seconds(), nil
	}
	ok, err := fits(lo)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil
	}
	for lo+lo/10+1 < hi { // ~10% resolution is plenty for a capacity claim
		mid := (lo + hi) / 2
		ok, err := fits(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// proportionalityRow records total time vs tick count.
type proportionalityRow struct {
	ticks          int
	totalSeconds   float64
	secondsPerTick float64
}

// proportionality checks that total time scales linearly with the number
// of simulated ticks (the paper: "proportional … to within one percent").
func (r *runner) proportionality(mode engine.Mode, n int, tickCounts []int) ([]proportionalityRow, error) {
	var rows []proportionalityRow
	for _, ticks := range tickCounts {
		e, err := r.newEngine(mode, n, 0.01, 42)
		if err != nil {
			return nil, err
		}
		if err := e.Run(r.warmup); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := e.Run(ticks); err != nil {
			return nil, err
		}
		total := time.Since(start).Seconds()
		rows = append(rows, proportionalityRow{ticks: ticks, totalSeconds: total, secondsPerTick: total / float64(ticks)})
	}
	return rows, nil
}
