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
	s, _, err := r.tickSeconds(engine.Indexed, 100, 0.01, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("seconds per tick = %v", s)
	}
}

// TestFig10ShapeTiny reads Figure 10's shape off counted work, never off
// the clock: the decision phase's counts are a function of the world and
// the seed, so the assertions hold however loaded the machine is. Naive
// scans every row per probe and its probes grow with the units, so its
// rows scanned grow quadratically: 16× for 4× the units. The indexed
// engine's probes grow with the units alone, each bounded by a range
// tree's O(log² n) canonical nodes.
func TestFig10ShapeTiny(t *testing.T) {
	r := testRunner(t)
	rows, err := r.fig10([]int{100, 400}, 0.01, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// rowsScanned and probes are writeFig10's columns: rows read by
	// scanning probes, and probes a structure answered.
	type work struct{ rowsScanned, probes int }
	works := map[string]map[int]work{}
	for _, row := range rows {
		if works[row.mode] == nil {
			works[row.mode] = map[int]work{}
		}
		s := row.work
		works[row.mode][row.units] = work{s.ScanProbes * row.units, s.TreeProbes + s.KDProbes + s.Sweeps}
		if row.total500 <= 0 || row.total500 != row.secondsPerTick*500 {
			t.Fatalf("total500 inconsistent: %+v", row)
		}
	}
	naive, indexed := works["naive"], works["indexed"]
	if naive[100].probes != 0 || naive[400].probes != 0 {
		t.Fatalf("the naive engine answered probes from a structure: %+v", naive)
	}
	// Quadratic: 4× units ⇒ well over 4× the rows scanned (16× predicted;
	// anything under 12× is no longer clearly super-linear).
	if ratio := float64(naive[400].rowsScanned) / float64(naive[100].rowsScanned); !(ratio >= 12) {
		t.Errorf("naive rows scanned 400/100 = %.2f (%d → %d), expected quadratic growth",
			ratio, naive[100].rowsScanned, naive[400].rowsScanned)
	}
	// Linear: 4× units ⇒ about 4× the probes, and no row scanned that a
	// structure could have answered.
	if indexed[100].rowsScanned != 0 || indexed[400].rowsScanned != 0 {
		t.Errorf("the indexed battle scanned rows: %+v", indexed)
	}
	if ratio := float64(indexed[400].probes) / float64(indexed[100].probes); !(ratio <= 6) {
		t.Errorf("indexed probes 400/100 = %.2f (%d → %d), expected linear growth",
			ratio, indexed[100].probes, indexed[400].probes)
	}
	// The indexed engine must beat naive at 400 by a wide margin, even
	// charging every probe log₂(n)² rows.
	const n, logN = 400, 9 // ⌈log₂ 400⌉
	if cost := indexed[n].probes * logN * logN; cost*3 >= naive[n].rowsScanned {
		t.Errorf("indexed %d probes (≤ %d row visits) vs naive %d rows scanned at %d units: no clear win",
			indexed[n].probes, cost, naive[n].rowsScanned, n)
	}
	var buf bytes.Buffer
	writeFig10(&buf, rows)
	if !strings.Contains(buf.String(), "sec/500 ticks") || !strings.Contains(buf.String(), "rows scanned") {
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
