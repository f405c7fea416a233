package rangetree

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
)

// randomPoints generates n points on a small integer-ish grid so that
// duplicate coordinates occur, with a 2-wide payload (count, value).
func randomPoints(seed int64, n int, gridSize float64) ([]Point, []float64) {
	st := rng.NewStream(rng.New(uint64(seed)), 17)
	pts := make([]Point, n)
	vals := make([]float64, 2*n)
	for i := range pts {
		pts[i] = Point{
			X: math.Floor(st.Float64() * gridSize),
			Y: math.Floor(st.Float64() * gridSize),
		}
		vals[2*i] = 1
		vals[2*i+1] = math.Floor(st.Float64()*20) - 10
	}
	return pts, vals
}

func bruteAggregate(pts []Point, vals []float64, width int, r geom.Rect) []float64 {
	out := make([]float64, width)
	for i, p := range pts {
		if r.Contains(geom.Point{X: p.X, Y: p.Y}) {
			for c := 0; c < width; c++ {
				out[c] += vals[i*width+c]
			}
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil, 2, nil)
	out := make([]float64, 2)
	tr.Aggregate(geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, out)
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty tree aggregate = %v", out)
	}
	if tr.Count(geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}) != 0 {
		t.Fatal("empty tree count != 0")
	}
	if tr.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	tr.Report(geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}, func(int) { t.Fatal("reported from empty tree") })
}

func TestSinglePoint(t *testing.T) {
	tr := Build([]Point{{X: 5, Y: 5}}, 1, []float64{3})
	out := []float64{0}
	tr.Aggregate(geom.RectAround(geom.Point{X: 5, Y: 5}, 1), out)
	if out[0] != 3 {
		t.Fatalf("got %v, want 3", out[0])
	}
	out[0] = 0
	tr.Aggregate(geom.RectAround(geom.Point{X: 8, Y: 8}, 1), out)
	if out[0] != 0 {
		t.Fatalf("miss should be 0, got %v", out[0])
	}
}

func TestBoundaryInclusive(t *testing.T) {
	// Points exactly on the query boundary must be included, matching the
	// SQL conditions E.x >= lo AND E.x <= hi of the paper's aggregates.
	pts := []Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}, {X: 5, Y: 5}}
	vals := []float64{1, 1, 1, 1, 1}
	tr := Build(pts, 1, vals)
	out := []float64{0}
	tr.Aggregate(geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, out)
	if out[0] != 5 {
		t.Fatalf("boundary points excluded: got %v, want 5", out[0])
	}
}

func TestDuplicateCoordinates(t *testing.T) {
	pts := []Point{{X: 3, Y: 3}, {X: 3, Y: 3}, {X: 3, Y: 3}, {X: 3, Y: 4}, {X: 4, Y: 3}}
	vals := []float64{1, 1, 1, 1, 1}
	tr := Build(pts, 1, vals)
	out := []float64{0}
	tr.Aggregate(geom.Rect{MinX: 3, MinY: 3, MaxX: 3, MaxY: 3}, out)
	if out[0] != 3 {
		t.Fatalf("duplicates: got %v, want 3", out[0])
	}
}

func TestWidthZero(t *testing.T) {
	pts := []Point{{X: 1, Y: 1}, {X: 2, Y: 2}}
	tr := Build(pts, 0, nil)
	if got := tr.Count(geom.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 3}); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestBuildPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative width": func() { Build(nil, -1, nil) },
		"vals mismatch":  func() { Build([]Point{{X: 1, Y: 1}}, 2, []float64{1}) },
		"out mismatch": func() {
			tr := Build([]Point{{X: 1, Y: 1}}, 1, []float64{1})
			tr.Aggregate(geom.Rect{}, make([]float64, 3))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAggregateMatchesBrute(t *testing.T) {
	pts, vals := randomPoints(1, 500, 50)
	tr := Build(pts, 2, vals)
	st := rng.NewStream(rng.New(2), 3)
	for q := 0; q < 200; q++ {
		c := geom.Point{X: st.Float64() * 50, Y: st.Float64() * 50}
		r := geom.RectAround(c, st.Float64()*20)
		want := bruteAggregate(pts, vals, 2, r)
		got := make([]float64, 2)
		tr.Aggregate(r, got)
		if math.Abs(got[0]-want[0]) > 1e-9 || math.Abs(got[1]-want[1]) > 1e-9 {
			t.Fatalf("query %v: got %v, want %v", r, got, want)
		}
	}
}

func TestNoCascadeMatchesCascade(t *testing.T) {
	pts, vals := randomPoints(5, 300, 30)
	tr := Build(pts, 2, vals)
	st := rng.NewStream(rng.New(6), 4)
	for q := 0; q < 200; q++ {
		c := geom.Point{X: st.Float64() * 30, Y: st.Float64() * 30}
		r := geom.RectAround(c, st.Float64()*12)
		a := make([]float64, 2)
		b := make([]float64, 2)
		tr.Aggregate(r, a)
		tr.AggregateNoCascade(r, b)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("cascade %v != no-cascade %v for %v", a, b, r)
		}
	}
}

func TestCountMatchesBrute(t *testing.T) {
	pts, vals := randomPoints(9, 400, 40)
	tr := Build(pts, 2, vals)
	st := rng.NewStream(rng.New(10), 5)
	for q := 0; q < 200; q++ {
		c := geom.Point{X: st.Float64() * 40, Y: st.Float64() * 40}
		r := geom.RectAround(c, st.Float64()*15)
		want := int(bruteAggregate(pts, vals, 2, r)[0])
		if got := tr.Count(r); got != want {
			t.Fatalf("Count(%v) = %d, want %d", r, got, want)
		}
	}
}

func TestReportMatchesBrute(t *testing.T) {
	pts, vals := randomPoints(11, 300, 30)
	tr := Build(pts, 2, vals)
	st := rng.NewStream(rng.New(12), 6)
	for q := 0; q < 100; q++ {
		c := geom.Point{X: st.Float64() * 30, Y: st.Float64() * 30}
		r := geom.RectAround(c, st.Float64()*10)
		var got []int
		tr.Report(r, func(i int) { got = append(got, i) })
		var want []int
		for i, p := range pts {
			if r.Contains(geom.Point{X: p.X, Y: p.Y}) {
				want = append(want, i)
			}
		}
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("Report len = %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Report ids %v, want %v", got, want)
			}
		}
	}
}

func TestEmptyAndInvertedQueries(t *testing.T) {
	pts, vals := randomPoints(13, 100, 20)
	tr := Build(pts, 2, vals)
	out := make([]float64, 2)
	tr.Aggregate(geom.Rect{MinX: 5, MinY: 5, MaxX: 1, MaxY: 9}, out) // empty rect
	if out[0] != 0 || out[1] != 0 {
		t.Fatalf("empty rect aggregate = %v", out)
	}
	tr.Aggregate(geom.Rect{MinX: 1000, MinY: 1000, MaxX: 2000, MaxY: 2000}, out)
	if out[0] != 0 {
		t.Fatalf("far-away rect aggregate = %v", out)
	}
}

// Property: for arbitrary point sets and query rects, the cascading
// aggregate equals brute force.
func TestAggregateProperty(t *testing.T) {
	f := func(seed int64, n uint8, cx, cy, r uint8) bool {
		pts, vals := randomPoints(seed, int(n), 25)
		tr := Build(pts, 2, vals)
		rect := geom.RectAround(geom.Point{X: float64(cx % 25), Y: float64(cy % 25)}, float64(r%12))
		want := bruteAggregate(pts, vals, 2, rect)
		got := make([]float64, 2)
		tr.Aggregate(rect, got)
		return math.Abs(got[0]-want[0]) < 1e-9 && math.Abs(got[1]-want[1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count is monotone under rect growth.
func TestCountMonotoneProperty(t *testing.T) {
	pts, vals := randomPoints(77, 200, 30)
	tr := Build(pts, 2, vals)
	f := func(cx, cy, r1, r2 uint8) bool {
		c := geom.Point{X: float64(cx % 30), Y: float64(cy % 30)}
		small, big := float64(r1%10), float64(r1%10)+float64(r2%10)
		return tr.Count(geom.RectAround(c, small)) <= tr.Count(geom.RectAround(c, big))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func buildBenchTree(n int) (*Tree, []geom.Rect) {
	pts, vals := randomPoints(42, n, math.Sqrt(float64(n)*100)) // ~1% density
	tr := Build(pts, 2, vals)
	st := rng.NewStream(rng.New(43), 7)
	probes := make([]geom.Rect, 1024)
	side := math.Sqrt(float64(n) * 100)
	for i := range probes {
		probes[i] = geom.RectAround(geom.Point{X: st.Float64() * side, Y: st.Float64() * side}, side/10)
	}
	return tr, probes
}

func BenchmarkAggregateCascade(b *testing.B) {
	tr, probes := buildBenchTree(10000)
	out := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out[0], out[1] = 0, 0
		tr.Aggregate(probes[i%len(probes)], out)
	}
}

func BenchmarkAggregateNoCascade(b *testing.B) {
	tr, probes := buildBenchTree(10000)
	out := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out[0], out[1] = 0, 0
		tr.AggregateNoCascade(probes[i%len(probes)], out)
	}
}

func BenchmarkBuild(b *testing.B) {
	pts, vals := randomPoints(42, 10000, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, 2, vals)
	}
}

// BenchmarkRebuild is the rebuild-every-tick cost: the same build into
// the storage the tree already owns.
func BenchmarkRebuild(b *testing.B) {
	pts, vals := randomPoints(42, 10000, 1000)
	tr := Build(pts, 2, vals)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Rebuild(pts, 2, vals)
	}
}
