package sweepline

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/rng"
)

// Point is a site together with its value: the tests' scenes carry one
// value column.
type Point struct {
	X, Y  float64
	Value float64
	Key   int64
}

func split(points []Point) ([]Site, []float64) {
	sites, vals := make([]Site, len(points)), make([]float64, len(points))
	for i, p := range points {
		sites[i], vals[i] = Site{X: p.X, Y: p.Y, Key: p.Key}, p.Value
	}
	return sites, vals
}

// Sweep is the one-shot form: a fresh Order and a fresh Sweeper.
func Sweep(points []Point, probes []Probe, ry float64, op segtree.Op) []Result {
	sites, vals := split(points)
	var order Order
	order.Rebuild(sites)
	return new(Sweeper).Sweep(&order, vals, probes, ry, op)
}

// refSweep is the sweep as it was before the orderings were hoisted into
// Order: every call sorts the points by (x, key) and stably by y, keeps
// the window membership in a map from key, and allocates its tree. It is
// the reference the shared-order sweeps are held to.
func refSweep(points []Point, probes []Probe, ry float64, op segtree.Op) []Result {
	results := make([]Result, len(probes))
	if len(points) == 0 || len(probes) == 0 {
		for i := range results {
			results[i] = Result{Value: segtree.Identity(op), Key: segtree.NoKey}
		}
		return results
	}
	byX := make([]int, len(points))
	for i := range byX {
		byX[i] = i
	}
	sort.Slice(byX, func(a, b int) bool {
		pa, pb := points[byX[a]], points[byX[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return pa.Key < pb.Key
	})
	xs, rank := make([]float64, len(points)), make([]int, len(points))
	for r, i := range byX {
		xs[r], rank[i] = points[i].X, r
	}
	byY := append([]int(nil), byX...)
	sort.SliceStable(byY, func(a, b int) bool { return points[byY[a]].Y < points[byY[b]].Y })
	probeOrder := make([]int, len(probes))
	for i := range probeOrder {
		probeOrder[i] = i
	}
	sort.SliceStable(probeOrder, func(a, b int) bool { return probes[probeOrder[a]].Y < probes[probeOrder[b]].Y })

	tree := segtree.New(len(points), op)
	active := make(map[int64]int, len(points))
	enter, exit := 0, 0
	for _, pi := range probeOrder {
		pr := probes[pi]
		for enter < len(byY) && points[byY[enter]].Y-ry <= pr.Y {
			pt := points[byY[enter]]
			tree.Set(rank[byY[enter]], pt.Value, pt.Key)
			active[pt.Key] = byY[enter]
			enter++
		}
		for exit < len(byY) && points[byY[exit]].Y+ry < pr.Y {
			tree.Clear(rank[byY[exit]])
			delete(active, points[byY[exit]].Key)
			exit++
		}
		lo := sort.SearchFloat64s(xs, pr.X-pr.RX)
		hi := sort.Search(len(xs), func(i int) bool { return xs[i] > pr.X+pr.RX })
		exIdx, restored := 0, false
		if pr.Exclude >= 0 {
			if idx, ok := active[points[pr.Exclude].Key]; ok {
				tree.Clear(rank[idx])
				exIdx, restored = idx, true
			}
		}
		v, k := tree.Query(lo, hi)
		if restored {
			tree.Set(rank[exIdx], points[exIdx].Value, points[exIdx].Key)
		}
		results[pi] = Result{Value: v, Key: k, Found: k != segtree.NoKey}
	}
	return results
}

// brute mirrors the contract of Sweep exactly, with tie-break on key.
func brute(points []Point, probes []Probe, ry float64, op segtree.Op) []Result {
	out := make([]Result, len(probes))
	for i, pr := range probes {
		best := Result{Value: segtree.Identity(op), Key: segtree.NoKey}
		for j, p := range points {
			if j == pr.Exclude {
				continue
			}
			if math.Abs(p.X-pr.X) > pr.RX || math.Abs(p.Y-pr.Y) > ry {
				continue
			}
			better := false
			switch {
			case !best.Found:
				better = true
			case op == segtree.Min && (p.Value < best.Value || (p.Value == best.Value && p.Key < best.Key)):
				better = true
			case op == segtree.Max && (p.Value > best.Value || (p.Value == best.Value && p.Key < best.Key)):
				better = true
			}
			if better {
				best = Result{Value: p.Value, Key: p.Key, Found: true}
			}
		}
		out[i] = best
	}
	return out
}

func randomScene(seed int64, nPts, nProbes int, side float64) ([]Point, []Probe) {
	st := rng.NewStream(rng.New(uint64(seed)), 31)
	pts := make([]Point, nPts)
	for i := range pts {
		pts[i] = Point{
			X:     math.Floor(st.Float64() * side),
			Y:     math.Floor(st.Float64() * side),
			Value: math.Floor(st.Float64() * 100),
			Key:   int64(i),
		}
	}
	probes := make([]Probe, nProbes)
	for i := range probes {
		probes[i] = Probe{
			X:       math.Floor(st.Float64() * side),
			Y:       math.Floor(st.Float64() * side),
			RX:      math.Floor(st.Float64() * side / 3),
			Exclude: NoExclude,
		}
	}
	return pts, probes
}

func TestEmptyInputs(t *testing.T) {
	res := Sweep(nil, []Probe{{X: 0, Y: 0, RX: 5, Exclude: NoExclude}}, 5, segtree.Min)
	if len(res) != 1 || res[0].Found {
		t.Fatalf("no points: %+v", res)
	}
	if res := Sweep([]Point{{X: 1, Y: 1, Value: 2, Key: 3}}, nil, 5, segtree.Min); len(res) != 0 {
		t.Fatalf("no probes: %+v", res)
	}
}

func TestSinglePointInAndOut(t *testing.T) {
	pts := []Point{{X: 5, Y: 5, Value: 42, Key: 9}}
	probes := []Probe{
		{X: 5, Y: 5, RX: 1, Exclude: NoExclude},  // dead center
		{X: 6, Y: 6, RX: 1, Exclude: NoExclude},  // corner, boundary inclusive
		{X: 8, Y: 5, RX: 1, Exclude: NoExclude},  // out of x range
		{X: 5, Y: 8, RX: 10, Exclude: NoExclude}, // out of y range
	}
	res := Sweep(pts, probes, 1, segtree.Min)
	if !res[0].Found || res[0].Value != 42 || res[0].Key != 9 {
		t.Fatalf("center probe: %+v", res[0])
	}
	if !res[1].Found {
		t.Fatalf("boundary probe should find the point: %+v", res[1])
	}
	if res[2].Found || res[3].Found {
		t.Fatalf("out-of-range probes found the point: %+v %+v", res[2], res[3])
	}
}

func TestExclusion(t *testing.T) {
	pts := []Point{
		{X: 0, Y: 0, Value: 10, Key: 1},
		{X: 1, Y: 0, Value: 20, Key: 2},
	}
	probes := []Probe{
		{X: 0, Y: 0, RX: 5, Exclude: 0},
		{X: 0, Y: 0, RX: 5, Exclude: NoExclude},
	}
	res := Sweep(pts, probes, 5, segtree.Min)
	if res[0].Key != 2 || res[0].Value != 20 {
		t.Fatalf("exclusion failed: %+v", res[0])
	}
	if res[1].Key != 1 || res[1].Value != 10 {
		t.Fatalf("no-exclusion wrong: %+v", res[1])
	}
}

func TestExclusionRestoresLeaf(t *testing.T) {
	// Two probes at the same y, the first excluding the minimum: the
	// second must still see it (the leaf must be restored).
	pts := []Point{{X: 0, Y: 0, Value: 1, Key: 5}, {X: 1, Y: 0, Value: 9, Key: 6}}
	probes := []Probe{
		{X: 0, Y: 0, RX: 5, Exclude: 0},
		{X: 0, Y: 0, RX: 5, Exclude: NoExclude},
	}
	res := Sweep(pts, probes, 5, segtree.Min)
	if res[0].Key != 6 {
		t.Fatalf("probe 0: %+v", res[0])
	}
	if res[1].Key != 5 || res[1].Value != 1 {
		t.Fatalf("leaf not restored: %+v", res[1])
	}
}

func TestMinAndMax(t *testing.T) {
	pts := []Point{
		{X: 0, Y: 0, Value: 5, Key: 1},
		{X: 1, Y: 1, Value: 9, Key: 2},
		{X: 2, Y: 0, Value: 2, Key: 3},
	}
	probe := []Probe{{X: 1, Y: 0, RX: 3, Exclude: NoExclude}}
	if res := Sweep(pts, probe, 3, segtree.Min); res[0].Value != 2 || res[0].Key != 3 {
		t.Fatalf("min: %+v", res[0])
	}
	if res := Sweep(pts, probe, 3, segtree.Max); res[0].Value != 9 || res[0].Key != 2 {
		t.Fatalf("max: %+v", res[0])
	}
}

func TestTieBreaksTowardSmallerKey(t *testing.T) {
	pts := []Point{
		{X: 0, Y: 0, Value: 7, Key: 30},
		{X: 1, Y: 0, Value: 7, Key: 10},
		{X: 2, Y: 0, Value: 7, Key: 20},
	}
	res := Sweep(pts, []Probe{{X: 1, Y: 0, RX: 5, Exclude: NoExclude}}, 5, segtree.Min)
	if res[0].Key != 10 {
		t.Fatalf("tie should pick smallest key, got %d", res[0].Key)
	}
}

func TestVaryingRXConstantRY(t *testing.T) {
	// Different probes may have different x half-extents; only ry is fixed.
	pts := []Point{
		{X: 0, Y: 0, Value: 1, Key: 1},
		{X: 10, Y: 0, Value: 2, Key: 2},
	}
	probes := []Probe{
		{X: 5, Y: 0, RX: 2, Exclude: NoExclude},  // neither in x-range
		{X: 5, Y: 0, RX: 20, Exclude: NoExclude}, // both
	}
	res := Sweep(pts, probes, 1, segtree.Min)
	if res[0].Found {
		t.Fatalf("narrow probe found: %+v", res[0])
	}
	if !res[1].Found || res[1].Value != 1 {
		t.Fatalf("wide probe: %+v", res[1])
	}
}

// TestAgainstBruteRandom holds the sweep to brute force on a scene with
// as many probes as sites, and on a sparse one — many sites, few probes —
// where most sites enter and leave the window between two probes and are
// never written.
func TestAgainstBruteRandom(t *testing.T) {
	for _, scene := range []struct{ pts, probes int }{{300, 200}, {3000, 12}} {
		for _, op := range []segtree.Op{segtree.Min, segtree.Max} {
			pts, probes := randomScene(3, scene.pts, scene.probes, 50)
			// Give some probes an exclusion.
			for i := range probes {
				if i%3 == 0 {
					probes[i].Exclude = i % len(pts)
				}
			}
			got := Sweep(pts, probes, 7, op)
			want := brute(pts, probes, 7, op)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d sites, %d probes, op=%v probe %d: got %+v, want %+v",
						scene.pts, scene.probes, op, i, got[i], want[i])
				}
			}
		}
	}
}

// Property: Sweep equals brute force on random scenes with random ry,
// negative ones (an empty window) included.
func TestSweepProperty(t *testing.T) {
	f := func(seed int64, nPts, nProbes, ryRaw uint8) bool {
		pts, probes := randomScene(seed, int(nPts%50)+1, int(nProbes%30)+1, 20)
		ry := float64(int(ryRaw%23) - 7)
		got := Sweep(pts, probes, ry, segtree.Min)
		want := brute(pts, probes, ry, segtree.Min)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedOrderSweepMatchesSweep holds sweeps over one hoisted Order, on
// one reused Sweeper, to what the per-call sweep computed: both aggregates,
// window heights from 0 to +Inf, self-exclusion, and scenes dense enough
// that coordinates, values and sweep positions all tie. The Sweeper goes
// from scene to scene of different sizes, so a stale tree, membership
// table or result buffer would show.
func TestSharedOrderSweepMatchesSweep(t *testing.T) {
	var sw Sweeper
	order := &Order{}
	for seed := int64(1); seed <= 12; seed++ {
		st := rng.NewStream(rng.New(uint64(seed)), 37)
		pts, probes := randomScene(seed, st.Intn(120), 1+st.Intn(90), float64(4+st.Intn(12)))
		for i := range pts {
			pts[i].Value = float64(st.Intn(5)) // few distinct values: ties
		}
		for i := range probes {
			if len(pts) > 0 && i%3 == 0 {
				probes[i].Exclude = st.Intn(len(pts))
			}
		}
		sites, vals := split(pts)
		order.Rebuild(sites)
		for _, ry := range []float64{0, 1, 2.5, 7, math.Inf(1)} {
			for _, op := range []segtree.Op{segtree.Min, segtree.Max} {
				want := refSweep(pts, probes, ry, op)
				got := sw.Sweep(order, vals, probes, ry, op)
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d results for %d probes", seed, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d ry=%v op=%v probe %d (%+v): shared-order %+v, per-call %+v",
							seed, ry, op, i, probes[i], got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkSweep is one sweep over a standing Order on a warm Sweeper;
// BenchmarkOrderRebuild is the sort that Order saves every such sweep.
func BenchmarkSweep(b *testing.B) {
	pts, probes := randomScene(42, 10000, 10000, 1000)
	sites, vals := split(pts)
	order, sw := new(Order), new(Sweeper)
	order.Rebuild(sites)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Sweep(order, vals, probes, 50, segtree.Min)
	}
}

func BenchmarkOrderRebuild(b *testing.B) {
	pts, _ := randomScene(42, 10000, 1, 1000)
	sites, _ := split(pts)
	order := new(Order)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order.Rebuild(sites)
	}
}

func BenchmarkBruteMin(b *testing.B) {
	pts, probes := randomScene(42, 2000, 2000, 450)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brute(pts, probes, 50, segtree.Min)
	}
}

func TestCenterHalf(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		lo, hi, center, half float64
	}{
		{lo: 2, hi: 10, center: 6, half: 4},
		{lo: -5, hi: -5, center: -5, half: 0},
		{lo: -3, hi: 1, center: -1, half: 2},
		{lo: -inf, hi: inf, center: 0, half: inf}, // an absent axis
	} {
		c0, h0 := CenterHalf(c.lo, c.hi)
		if c0 != c.center || h0 != c.half {
			t.Errorf("CenterHalf(%v, %v) = (%v, %v), want (%v, %v)", c.lo, c.hi, c0, h0, c.center, c.half)
		}
	}
}
