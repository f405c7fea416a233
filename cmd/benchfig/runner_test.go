package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
)

func testRunner(t *testing.T) *runner {
	t.Helper()
	r, err := newRunner()
	if err != nil {
		t.Fatal(err)
	}
	r.warmup = 1
	return r
}

func TestTickSecondsPositive(t *testing.T) {
	r := testRunner(t)
	s, err := r.tickSeconds(engine.Indexed, 100, 0.01, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("seconds per tick = %v", s)
	}
}

func TestFig10ShapeTiny(t *testing.T) {
	r := testRunner(t)
	rows, err := r.fig10([]int{100, 400}, 0.01, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Extract per-mode series.
	times := map[string]map[int]float64{}
	for _, row := range rows {
		if times[row.mode] == nil {
			times[row.mode] = map[int]float64{}
		}
		times[row.mode][row.units] = row.secondsPerTick
		if row.total500 <= 0 || row.total500 != row.secondsPerTick*500 {
			t.Fatalf("total500 inconsistent: %+v", row)
		}
	}
	// The naive engine must grow super-linearly: 4× units ⇒ well over 4×
	// the time (quadratic predicts 16×; allow noise down to 6×).
	naiveRatio := times["naive"][400] / times["naive"][100]
	if naiveRatio < 6 {
		t.Errorf("naive 400/100 ratio = %.1f, expected clearly super-linear", naiveRatio)
	}
	// The indexed engine must beat naive at 400 by a wide margin.
	if times["indexed"][400] >= times["naive"][400]/3 {
		t.Errorf("indexed %.6f vs naive %.6f at 400 units: no clear win", times["indexed"][400], times["naive"][400])
	}
	var buf bytes.Buffer
	writeFig10(&buf, rows)
	if !strings.Contains(buf.String(), "sec/500 ticks") {
		t.Error("table header missing")
	}
}

func TestNaiveCapSkipsLargeNaivePoints(t *testing.T) {
	r := testRunner(t)
	rows, err := r.fig10([]int{100, 300}, 0.01, 1, 150)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.mode == "naive" && row.units > 150 {
			t.Fatalf("naive point above cap: %+v", row)
		}
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
}

func TestDensityTiny(t *testing.T) {
	r := testRunner(t)
	rows, err := r.density(80, []float64{0.01, 0.04}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	writeDensity(&buf, rows)
	if !strings.Contains(buf.String(), "density") {
		t.Error("density header missing")
	}
}

func TestCapacityFindsThreshold(t *testing.T) {
	r := testRunner(t)
	// A generous budget that even the naive engine meets at 50 units.
	n, err := r.capacity(engine.Indexed, 500*time.Millisecond, 50, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Fatalf("capacity = %d, want ≥ 50", n)
	}
	// An impossible budget yields 0.
	n, err = r.capacity(engine.Naive, time.Nanosecond, 50, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("capacity under 1ns budget = %d, want 0", n)
	}
}

func TestProportionality(t *testing.T) {
	r := testRunner(t)
	rows, err := r.proportionality(engine.Indexed, 150, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.totalSeconds <= 0 || row.secondsPerTick <= 0 {
			t.Fatalf("bad row %+v", row)
		}
	}
}

func TestTierProgramsCompile(t *testing.T) {
	for _, tier := range scriptTiers {
		if _, err := tierProgram(tier); err != nil {
			t.Errorf("tier %s: %v", tier, err)
		}
	}
	if _, err := tierProgram("bogus"); err == nil {
		t.Error("unknown tier should fail")
	}
}

// fig1 reports one capacity per tier and engine, in tier order, naive
// before indexed: the search's upper end under a budget every size
// meets, zero under one no size meets.
func TestFig1Rows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget time.Duration
		want   int
	}{
		// With every size fitting, the search from [20, 60] converges at
		// 55, where the next step is under its 10% resolution.
		{"generous budget", time.Minute, 55},
		{"impossible budget", time.Nanosecond, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := testRunner(t)
			rows, err := r.fig1(tc.budget, 20, 60, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 2*len(scriptTiers) {
				t.Fatalf("rows = %d, want %d", len(rows), 2*len(scriptTiers))
			}
			for i, row := range rows {
				tier, mode := scriptTiers[i/2], []engine.Mode{engine.Naive, engine.Indexed}[i%2].String()
				if row.tier != tier || row.mode != mode || row.maxUnits != tc.want {
					t.Errorf("row %d = %+v, want {%s %s %d}", i, row, tier, mode, tc.want)
				}
			}
			var buf bytes.Buffer
			writeFig1(&buf, rows)
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if len(lines) != len(rows)+1 || !strings.Contains(lines[0], "max units") {
				t.Fatalf("table:\n%s", buf.String())
			}
		})
	}
}

// Each tier must actually run under both engines and stay in agreement.
func TestTiersRunDifferentially(t *testing.T) {
	for _, tier := range scriptTiers[:3] { // "individual" is covered by engine tests
		prog, err := tierProgram(tier)
		if err != nil {
			t.Fatal(err)
		}
		tr := &runner{prog: prog}
		naive, err := tr.newEngine(engine.Naive, 60, 0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := tr.newEngine(engine.Indexed, 60, 0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 5; tick++ {
			if err := naive.Tick(); err != nil {
				t.Fatalf("tier %s naive: %v", tier, err)
			}
			if err := indexed.Tick(); err != nil {
				t.Fatalf("tier %s indexed: %v", tier, err)
			}
			if !naive.Env().AlmostEqualContents(indexed.Env(), 1e-9) {
				t.Fatalf("tier %s diverged at tick %d", tier, tick)
			}
		}
	}
}
