// Command benchfig regenerates the paper's evaluation figures and tables
// (Section 6) as text tables.
//
// Usage:
//
//	benchfig -experiment fig10                 # Figure 10 scalability series
//	benchfig -experiment density               # unit-density sensitivity
//	benchfig -experiment capacity              # 10 ticks/s capacity per engine
//	benchfig -experiment ticks                 # proportionality to tick count
//	benchfig -experiment fig1                  # expressiveness-tier frontier
//	benchfig -experiment all -quick            # everything, reduced sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/epicscale/sgl/internal/engine"
)

// experiments are the names -experiment accepts besides "all", which runs
// them in this order.
var experiments = []struct {
	name string
	run  func(r *runner, quick bool, measure int)
}{
	{"fig10", fig10},
	{"density", density},
	{"capacity", capacity},
	{"ticks", ticks},
	{"fig1", fig1},
}

func main() {
	names := make([]string, len(experiments))
	for i, x := range experiments {
		names[i] = x.name
	}
	experiment := flag.String("experiment", "fig10", strings.Join(names, ", ")+", or all")
	quick := flag.Bool("quick", false, "smaller sizes and fewer measured ticks")
	measure := flag.Int("measure", 0, "override measured ticks per point (0 = default)")
	flag.Parse()

	r, err := newRunner()
	if err != nil {
		fatal(err)
	}
	ran := false
	for _, x := range experiments {
		if *experiment == "all" || *experiment == x.name {
			if ran {
				fmt.Println()
			}
			x.run(r, *quick, *measure)
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchfig: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func pick(measure, quickDefault, fullDefault int, quick bool) int {
	if measure > 0 {
		return measure
	}
	if quick {
		return quickDefault
	}
	return fullDefault
}

func fig10(r *runner, quick bool, measure int) {
	fmt.Println("=== Figure 10: total time vs number of units (constant 1% density) ===")
	sizes := []int{500, 1000, 2000, 4000, 8000, 12000, 14000}
	naiveCap := 4000
	if quick {
		sizes = []int{250, 500, 1000, 2000, 4000}
		naiveCap = 2000
	}
	rows, err := r.fig10(sizes, 0.01, pick(measure, 3, 10, quick), naiveCap)
	if err != nil {
		fatal(err)
	}
	writeFig10(os.Stdout, rows)
	fmt.Println("(naive points above the cap are omitted: quadratic growth)")
}

func density(r *runner, quick bool, measure int) {
	fmt.Println("=== Varying unit density (500 units, 0.5%–8%) ===")
	n := 500
	densities := []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	rows, err := r.density(n, densities, pick(measure, 3, 10, quick))
	if err != nil {
		fatal(err)
	}
	writeDensity(os.Stdout, rows)
}

func capacity(r *runner, quick bool, measure int) {
	fmt.Println("=== Capacity at 10 ticks per second (100 ms budget) ===")
	hi := 40000
	if quick {
		hi = 16000
	}
	for _, mode := range []engine.Mode{engine.Naive, engine.Indexed} {
		modeHi := hi
		if mode == engine.Naive && modeHi > 3000 {
			// Probing the quadratic engine at five-digit sizes would take
			// minutes per point; its capacity is far below 3000 anyway.
			modeHi = 3000
		}
		n, err := r.capacity(mode, 100*time.Millisecond, 100, modeHi, pick(measure, 2, 5, quick))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-8s sustains ~%d units at 10 ticks/s\n", mode, n)
	}
}

func ticks(r *runner, quick bool, _ int) {
	fmt.Println("=== Proportionality: total time vs tick count (2000 units, indexed) ===")
	counts := []int{50, 100, 200, 400}
	if quick {
		counts = []int{20, 40, 80}
	}
	rows, err := r.proportionality(engine.Indexed, 2000, counts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-8s %14s %14s\n", "ticks", "total sec", "sec/tick")
	for _, row := range rows {
		fmt.Printf("%-8d %14.3f %14.6f\n", row.ticks, row.totalSeconds, row.secondsPerTick)
	}
}

func fig1(r *runner, quick bool, measure int) {
	fmt.Println("=== Figure 1: expressiveness tiers vs sustainable army size (10 ticks/s) ===")
	hi := 40000
	if quick {
		hi = 8000
	}
	rows, err := r.fig1(100*time.Millisecond, 100, hi, pick(measure, 2, 4, quick))
	if err != nil {
		fatal(err)
	}
	writeFig1(os.Stdout, rows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfig:", err)
	os.Exit(1)
}
