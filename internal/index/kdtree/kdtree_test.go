package kdtree

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/epicscale/sgl/internal/rng"
)

func randomPoints(seed int64, n int, side float64) []Point {
	st := rng.NewStream(rng.New(uint64(seed)), 21)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{
			X:   math.Floor(st.Float64() * side),
			Y:   math.Floor(st.Float64() * side),
			Key: int64(i),
		}
	}
	return pts
}

// bruteNearest mirrors Tree.Nearest's contract exactly.
func bruteNearest(pts []Point, x, y float64, exclude int64, maxDist float64) Result {
	best := Result{DistSq: maxDist * maxDist}
	if math.IsInf(maxDist, 1) {
		best.DistSq = math.Inf(1)
	}
	for _, p := range pts {
		if p.Key == exclude {
			continue
		}
		dx, dy := p.X-x, p.Y-y
		d := dx*dx + dy*dy
		if d < best.DistSq ||
			(d == best.DistSq && best.Found && p.Key < best.Key) ||
			(d <= best.DistSq && !best.Found) {
			best = Result{Key: p.Key, X: p.X, Y: p.Y, DistSq: d, Found: true}
		}
	}
	return best
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if r := tr.Nearest(0, 0, -1, math.Inf(1)); r.Found {
		t.Fatalf("empty tree found %+v", r)
	}
}

func TestSinglePoint(t *testing.T) {
	tr := Build([]Point{{X: 3, Y: 4, Key: 7}})
	r := tr.Nearest(0, 0, -1, math.Inf(1))
	if !r.Found || r.Key != 7 || r.DistSq != 25 {
		t.Fatalf("got %+v", r)
	}
	if r := tr.Nearest(0, 0, 7, math.Inf(1)); r.Found {
		t.Fatalf("excluded point still found: %+v", r)
	}
}

func TestMaxDistBound(t *testing.T) {
	tr := Build([]Point{{X: 10, Y: 0, Key: 1}})
	if r := tr.Nearest(0, 0, -1, 5); r.Found {
		t.Fatalf("point beyond maxDist found: %+v", r)
	}
	if r := tr.Nearest(0, 0, -1, 10); !r.Found {
		t.Fatal("point exactly at maxDist should be found (inclusive)")
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	pts := randomPoints(3, 50, 20)
	snapshot := append([]Point(nil), pts...)
	Build(pts)
	for i := range pts {
		if pts[i] != snapshot[i] {
			t.Fatal("Build mutated its input slice")
		}
	}
}

func TestNearestMatchesBrute(t *testing.T) {
	pts := randomPoints(1, 400, 60)
	tr := Build(pts)
	st := rng.NewStream(rng.New(2), 22)
	for q := 0; q < 300; q++ {
		x, y := st.Float64()*60, st.Float64()*60
		exclude := int64(st.Intn(len(pts)))
		got := tr.Nearest(x, y, exclude, math.Inf(1))
		want := bruteNearest(pts, x, y, exclude, math.Inf(1))
		if got != want {
			t.Fatalf("Nearest(%v,%v,excl=%d) = %+v, want %+v", x, y, exclude, got, want)
		}
	}
}

func TestNearestWithRadiusMatchesBrute(t *testing.T) {
	pts := randomPoints(4, 300, 50)
	tr := Build(pts)
	st := rng.NewStream(rng.New(5), 23)
	for q := 0; q < 300; q++ {
		x, y := st.Float64()*50, st.Float64()*50
		maxDist := st.Float64() * 15
		got := tr.Nearest(x, y, -1, maxDist)
		want := bruteNearest(pts, x, y, -1, maxDist)
		if got != want {
			t.Fatalf("Nearest radius: got %+v, want %+v", got, want)
		}
	}
}

func TestDuplicatePositionsTieBreak(t *testing.T) {
	pts := []Point{{5, 5, 30}, {5, 5, 10}, {5, 5, 20}}
	tr := Build(pts)
	r := tr.Nearest(5, 5, -1, math.Inf(1))
	if r.Key != 10 {
		t.Fatalf("tie should pick smallest key, got %d", r.Key)
	}
	r = tr.Nearest(5, 5, 10, math.Inf(1))
	if r.Key != 20 {
		t.Fatalf("tie with exclusion should pick key 20, got %d", r.Key)
	}
}

func TestAllReturnsSortedCopy(t *testing.T) {
	pts := randomPoints(10, 30, 10)
	tr := Build(pts)
	all := tr.All()
	if len(all) != 30 {
		t.Fatalf("All len = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].Key >= all[i].Key {
			t.Fatal("All not sorted by key")
		}
	}
}

// Property: tree NN equals brute-force NN for random configurations.
func TestNearestProperty(t *testing.T) {
	f := func(seed int64, n uint8, qx, qy uint8, excl uint8) bool {
		pts := randomPoints(seed, int(n%64)+1, 30)
		tr := Build(pts)
		x, y := float64(qx%30), float64(qy%30)
		exclude := int64(excl) % int64(len(pts))
		return tr.Nearest(x, y, exclude, math.Inf(1)) == bruteNearest(pts, x, y, exclude, math.Inf(1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNearest(b *testing.B) {
	pts := randomPoints(42, 10000, 1000)
	tr := Build(pts)
	st := rng.NewStream(rng.New(43), 25)
	qs := make([][2]float64, 1024)
	for i := range qs {
		qs[i] = [2]float64{st.Float64() * 1000, st.Float64() * 1000}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		tr.Nearest(q[0], q[1], int64(i%10000), math.Inf(1))
	}
}

func BenchmarkBuild(b *testing.B) {
	pts := randomPoints(42, 10000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}
