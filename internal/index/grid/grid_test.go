package grid

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
)

func randomPoints(seed int64, n int, side float64) ([]geom.Point, []float64) {
	st := rng.NewStream(rng.New(uint64(seed)), 41)
	pts := make([]geom.Point, n)
	vals := make([]float64, n)
	for i := range pts {
		pts[i] = geom.Point{X: math.Floor(st.Float64() * side), Y: math.Floor(st.Float64() * side)}
		vals[i] = math.Floor(st.Float64() * 10)
	}
	return pts, vals
}

func TestEmptyGrid(t *testing.T) {
	g := Build(nil, 1, nil, 4)
	out := []float64{0}
	g.Aggregate(geom.Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}, out)
	if out[0] != 0 || g.Count(geom.Rect{MinX: -5, MinY: -5, MaxX: 5, MaxY: 5}) != 0 || g.Len() != 0 {
		t.Fatal("empty grid not empty")
	}
}

func TestBuildPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero cell":     func() { Build(nil, 1, nil, 0) },
		"vals mismatch": func() { Build([]geom.Point{{X: 1, Y: 1}}, 2, []float64{1}, 4) },
		"out mismatch": func() {
			g := Build([]geom.Point{{X: 1, Y: 1}}, 1, []float64{1}, 4)
			g.Aggregate(geom.Rect{}, make([]float64, 2))
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
	pts, vals := randomPoints(1, 400, 60)
	for _, cell := range []float64{1, 4, 17, 100} {
		g := Build(pts, 1, vals, cell)
		st := rng.NewStream(rng.New(2), 42)
		for q := 0; q < 100; q++ {
			c := geom.Point{X: st.Float64() * 60, Y: st.Float64() * 60}
			r := rectAround(c, st.Float64()*20)
			var want float64
			wantCount := 0
			for i, p := range pts {
				if inside(r, p) {
					want += vals[i]
					wantCount++
				}
			}
			out := []float64{0}
			g.Aggregate(r, out)
			if out[0] != want {
				t.Fatalf("cell=%v Aggregate(%v) = %v, want %v", cell, r, out[0], want)
			}
			if got := g.Count(r); got != wantCount {
				t.Fatalf("cell=%v Count = %d, want %d", cell, got, wantCount)
			}
		}
	}
}

func TestQueryOutsideBounds(t *testing.T) {
	pts, vals := randomPoints(5, 50, 10)
	g := Build(pts, 1, vals, 2)
	out := []float64{0}
	g.Aggregate(geom.Rect{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}, out)
	if out[0] != 0 {
		t.Fatalf("far query = %v", out[0])
	}
	// A rect straddling the boundary should still clamp correctly.
	out[0] = 0
	g.Aggregate(geom.Rect{MinX: -100, MinY: -100, MaxX: 100, MaxY: 100}, out)
	var want float64
	for _, v := range vals {
		want += v
	}
	if out[0] != want {
		t.Fatalf("covering query = %v, want %v", out[0], want)
	}
}

// Property: grid aggregate equals brute force for random cell sizes.
func TestGridProperty(t *testing.T) {
	f := func(seed int64, n, cellRaw, cx, cy, rr uint8) bool {
		pts, vals := randomPoints(seed, int(n%80), 30)
		cell := float64(cellRaw%20) + 0.5
		g := Build(pts, 1, vals, cell)
		r := rectAround(geom.Point{X: float64(cx % 30), Y: float64(cy % 30)}, float64(rr%15))
		var want float64
		for i, p := range pts {
			if inside(r, p) {
				want += vals[i]
			}
		}
		out := []float64{0}
		g.Aggregate(r, out)
		return out[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyPlaceMove(t *testing.T) {
	o := NewOccupancy(8)
	if !o.Place(1.5, 1.5, 10) {
		t.Fatal("first Place failed")
	}
	if o.Place(1.9, 1.1, 20) {
		t.Fatal("second unit placed in same square")
	}
	if !o.Place(1.5, 1.5, 10) {
		t.Fatal("re-placing own square should succeed")
	}
	if k, ok := o.Occupied(1.2, 1.8); !ok || k != 10 {
		t.Fatalf("Occupied = %d,%v", k, ok)
	}
	if _, ok := o.Occupied(5, 5); ok {
		t.Fatal("empty square reported occupied")
	}
	if !o.Move(1.5, 1.5, 2.5, 1.5, 10) {
		t.Fatal("move to free square failed")
	}
	if _, ok := o.Occupied(1.5, 1.5); ok {
		t.Fatal("source square not released")
	}
	if k, _ := o.Occupied(2.5, 1.5); k != 10 {
		t.Fatal("destination square not taken")
	}
	if !o.Place(1.5, 1.5, 20) {
		t.Fatal("released square not reusable")
	}
	if o.Move(2.5, 1.5, 1.5, 1.5, 10) {
		t.Fatal("move onto occupied square should fail")
	}
	if !o.Move(2.5, 1.5, 2.9, 1.1, 10) {
		t.Fatal("move within same square should succeed")
	}
	if o.Size() != 2 {
		t.Fatalf("Size = %d, want 2", o.Size())
	}
	o.Remove(2.5, 1.5, 99) // wrong key: no-op
	if _, ok := o.Occupied(2.5, 1.5); !ok {
		t.Fatal("Remove with wrong key removed the square")
	}
	o.Remove(2.5, 1.5, 10)
	if _, ok := o.Occupied(2.5, 1.5); ok {
		t.Fatal("Remove failed")
	}
}

func TestOccupancyNegativeCoords(t *testing.T) {
	o := NewOccupancy(4)
	if !o.Place(-0.5, -0.5, 1) {
		t.Fatal("negative coord Place failed")
	}
	// (-0.5,-0.5) is square (-1,-1); (0.2,0.2) is square (0,0): distinct.
	if !o.Place(0.2, 0.2, 2) {
		t.Fatal("adjacent square across origin should be free")
	}
	if o.Place(-0.9, -0.1, 3) {
		t.Fatal("square (-1,-1) should be taken")
	}
}

func BenchmarkGridAggregate(b *testing.B) {
	pts, vals := randomPoints(42, 10000, 1000)
	g := Build(pts, 1, vals, 10)
	st := rng.NewStream(rng.New(43), 44)
	probes := make([]geom.Rect, 1024)
	for i := range probes {
		probes[i] = rectAround(geom.Point{X: st.Float64() * 1000, Y: st.Float64() * 1000}, 100)
	}
	out := []float64{0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out[0] = 0
		g.Aggregate(probes[i%len(probes)], out)
	}
}

// TestOccupancyExtremeSquares: squares at the ends of the int32 range —
// (−2^31, 0) packs to the flat table's empty-slot key — hold and release
// like any other, and closing a gap renumbers the holders after it.
func TestOccupancyExtremeSquares(t *testing.T) {
	o := NewOccupancy(2)
	squares := []Square{{math.MinInt32, 0}, {0, math.MinInt32}, {math.MaxInt32, math.MaxInt32}, {-1, -1}, {0, 0}}
	for i, s := range squares {
		if !o.claim(s, int32(i)) {
			t.Fatalf("square %v refused holder %d", s, i)
		}
	}
	for i, s := range squares {
		if o.claim(s, int32(i+10)) {
			t.Fatalf("square %v taken twice", s)
		}
	}
	o.release(squares[1], 1)
	o.CloseGap(1)
	for i, s := range squares {
		want := int32(i)
		if i > 1 {
			want--
		}
		k := s.pack()
		if got, ok := o.taken.Get(k); i == 1 && ok || i != 1 && (!ok || got != want) {
			t.Fatalf("square %v held by %d (%v) after the gap closed, want %d", s, got, ok, want)
		}
	}
	if o.Size() != len(squares)-1 {
		t.Fatalf("Size = %d, want %d", o.Size(), len(squares)-1)
	}
}

// rectAround returns the square of half-extent r centered at p.
func rectAround(p geom.Point, r float64) geom.Rect {
	return geom.Rect{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
}

// inside reports whether p lies in r, boundary inclusive.
func inside(r geom.Rect, p geom.Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Count returns the number of points inside r.
func (g *Index) Count(r geom.Rect) int {
	n := 0
	g.visit(r, func(int) { n++ })
	return n
}

func TestOccupancyReset(t *testing.T) {
	o := NewOccupancy(4)
	o.Place(1.5, 1.5, 1)
	o.Place(-3.2, 7.9, 2)
	o.Reset()
	if o.Size() != 0 {
		t.Fatalf("Size after Reset = %d, want 0", o.Size())
	}
	if _, ok := o.Occupied(1.5, 1.5); ok {
		t.Fatal("square still held after Reset")
	}
	if !o.Place(1.5, 1.5, 7) {
		t.Fatal("a reset square refused a new holder")
	}
	if k, ok := o.Occupied(1.1, 1.9); !ok || k != 7 {
		t.Fatalf("Occupied = %d,%v, want 7,true", k, ok)
	}
}
