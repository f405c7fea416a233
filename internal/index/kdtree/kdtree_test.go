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
func bruteNearest(pts []Point, x, y float64, exclude int64) Result {
	best := Result{DistSq: math.Inf(1)}
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
	if r := tr.Nearest(0, 0, -1); r.Found {
		t.Fatalf("empty tree found %+v", r)
	}
}

func TestSinglePoint(t *testing.T) {
	tr := Build([]Point{{X: 3, Y: 4, Key: 7}})
	r := tr.Nearest(0, 0, -1)
	if !r.Found || r.Key != 7 || r.DistSq != 25 {
		t.Fatalf("got %+v", r)
	}
	if r := tr.Nearest(0, 0, 7); r.Found {
		t.Fatalf("excluded point still found: %+v", r)
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
		got := tr.Nearest(x, y, exclude)
		want := bruteNearest(pts, x, y, exclude)
		if got != want {
			t.Fatalf("Nearest(%v,%v,excl=%d) = %+v, want %+v", x, y, exclude, got, want)
		}
	}
}

// TestNearestMatchesBruteAcrossLeaves holds the search to brute force
// field for field, bits included, at every size around a leaf boundary —
// a tree of one leaf, of leaves holding one point more or less than
// leafSize, and of many leaves — over lattice scenes where many points
// share a split coordinate. Each tree is probed exactly on each of its
// split planes, where a deferred child's offset bound is 0 and ties with
// the best so far decide what is visited, and at lattice and half-lattice
// positions, with the excluded key present and absent. One tree is
// rebuilt through every scene, so storage left by other sizes is reused.
func TestNearestMatchesBruteAcrossLeaves(t *testing.T) {
	const l = leafSize
	var tr Tree
	for _, n := range []int{0, 1, l - 1, l, l + 1, 2 * l, 2*l + 1, 4*l + 3, 1000} {
		for _, side := range []int{2, 5, 9} {
			st := rng.NewStream(rng.New(uint64(n*31+side)), 27)
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: float64(st.Intn(side)), Y: float64(st.Intn(side)), Key: int64(i)}
			}
			tr.Rebuild(pts)
			var probes [][2]float64
			for _, s := range tr.splits {
				v := float64(st.Intn(side))
				probes = append(probes, [2]float64{s, v}, [2]float64{v, s})
			}
			for q := 0; q < 20; q++ {
				probes = append(probes, [2]float64{float64(st.Intn(2*side)) / 2, float64(st.Intn(2*side)) / 2})
			}
			for _, q := range probes {
				for _, exclude := range []int64{int64(st.Intn(n + 1)), -1} { // present unless n = 0, then absent
					got := tr.Nearest(q[0], q[1], exclude)
					if want := bruteNearest(pts, q[0], q[1], exclude); !sameResult(got, want) {
						t.Fatalf("n=%d side=%d: Nearest(%v, %v, exclude %d) = %+v, brute force %+v",
							n, side, q[0], q[1], exclude, got, want)
					}
				}
			}
		}
	}
}

// TestRebuildAllocatesNothing: a rebuild lays its points out in the
// storage the tree already holds, so rebuilding into a tree that held as
// many points, or more, allocates nothing.
func TestRebuildAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name       string
		held, next []Point
	}{
		{"same size", randomPoints(6, 833, 100), randomPoints(7, 833, 100)},
		{"held more", randomPoints(8, 1000, 100), randomPoints(9, 833, 100)},
	} {
		tr := Build(c.held)
		allocs := testing.AllocsPerRun(20, func() {
			tr.Rebuild(c.next)
			tr.Rebuild(c.held)
		})
		if allocs != 0 {
			t.Errorf("%s: a rebuild allocates %.1f objects, want 0", c.name, allocs/2)
		}
	}
}

func TestDuplicatePositionsTieBreak(t *testing.T) {
	pts := []Point{{X: 5, Y: 5, Key: 30}, {X: 5, Y: 5, Key: 10}, {X: 5, Y: 5, Key: 20}}
	tr := Build(pts)
	r := tr.Nearest(5, 5, -1)
	if r.Key != 10 {
		t.Fatalf("tie should pick smallest key, got %d", r.Key)
	}
	r = tr.Nearest(5, 5, 10)
	if r.Key != 20 {
		t.Fatalf("tie with exclusion should pick key 20, got %d", r.Key)
	}
}

// Property: tree NN equals brute-force NN for random configurations.
func TestNearestProperty(t *testing.T) {
	f := func(seed int64, n uint8, qx, qy uint8, excl uint8) bool {
		pts := randomPoints(seed, int(n%64)+1, 30)
		tr := Build(pts)
		x, y := float64(qx%30), float64(qy%30)
		exclude := int64(excl) % int64(len(pts))
		return tr.Nearest(x, y, exclude) == bruteNearest(pts, x, y, exclude)
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
		tr.Nearest(q[0], q[1], int64(i%10000))
	}
}

func BenchmarkBuild(b *testing.B) {
	pts := randomPoints(42, 10000, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

// Build constructs a new tree; see Rebuild.
func Build(pts []Point) *Tree {
	t := &Tree{}
	t.Rebuild(pts)
	return t
}
