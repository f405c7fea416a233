package kdtree

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
)

// sameResult reports whether two answers agree field for field, the
// coordinates and distance bit for bit.
func sameResult(a, b Result) bool {
	return a.Found == b.Found && a.Key == b.Key && a.Ref == b.Ref &&
		math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.DistSq) == math.Float64bits(b.DistSq)
}

// TestDynamicOpsAgainstModel drives one tree through a random walk of
// point-set updates — fresh keys inserted, keys removed, keys moved — the
// way the tick does: every update is followed by a Rebuild into the same
// tree, so each rebuild lands on storage an earlier point set of another
// size and layout left behind. After every step the rebuilt tree must
// answer exactly like a fresh Build over the same points (bit for bit) and
// like a brute-force model, with an excluded key present or absent.
// Failures name the seed subtest to replay.
func TestDynamicOpsAgainstModel(t *testing.T) {
	for _, seed := range []uint64{2, 13, 42, 512} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := rng.NewStream(rng.New(seed), 23)
			n := 15 + st.Intn(40)
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: float64(st.Intn(50)), Y: float64(st.Intn(50)), Key: int64(i)}
			}
			nextKey := int64(n)
			tr := Build(pts)

			check := func(op int) {
				t.Helper()
				fresh := Build(pts)
				for probe := 0; probe < 10; probe++ {
					x, y := float64(st.Intn(50)), float64(st.Intn(50))
					exclude := int64(st.Intn(int(nextKey) + 1)) // may or may not be present
					got := tr.Nearest(x, y, exclude)
					if want := fresh.Nearest(x, y, exclude); !sameResult(got, want) {
						t.Fatalf("op %d: rebuilt Nearest(%v,%v,excl=%d) = %+v, fresh build %+v",
							op, x, y, exclude, got, want)
					}
					if want := bruteNearest(pts, x, y, exclude); got != want {
						t.Fatalf("op %d: Nearest(%v,%v,excl=%d) = %+v, model %+v",
							op, x, y, exclude, got, want)
					}
				}
			}

			check(-1)
			for op := 0; op < 60; op++ {
				switch st.Intn(4) {
				case 0: // insert a fresh key
					pts = append(pts, Point{X: float64(st.Intn(60)), Y: float64(st.Intn(60)), Key: nextKey})
					nextKey++
				case 1: // remove a random key
					if len(pts) > 0 {
						i := st.Intn(len(pts))
						pts = append(pts[:i], pts[i+1:]...)
					}
				case 2: // move a random key
					if len(pts) > 0 {
						i := st.Intn(len(pts))
						pts[i].X, pts[i].Y = float64(st.Intn(60)), float64(st.Intn(60))
					}
				default: // a burst of removals: the tree shrinks under its storage
					for k := st.Intn(8); k > 0 && len(pts) > 0; k-- {
						pts = pts[1:]
					}
				}
				tr.Rebuild(pts)
				if tr.Len() != len(pts) {
					t.Fatalf("op %d: rebuilt tree holds %d points, want %d", op, tr.Len(), len(pts))
				}
				check(op)
			}
		})
	}
}

// nearestScene decodes a fuzz input into a point set: two bytes per point
// (x, y), keys 0, 1, 2, …. Most bytes land on a 9×9 lattice, so duplicate
// points and equidistant ties are the rule; the rest pick a special finite
// value — ±0, subnormal, huge magnitudes whose squares overflow. (Points
// are positions, finite by the engine's invariant: see NearestOnce.)
func nearestScene(data []byte) []Point {
	special := []float64{
		math.Copysign(0, -1), 0.5, 5e-324, 1e154, -1e154, 1e300, -1e300,
		math.MaxFloat64, -math.MaxFloat64,
	}
	coord := func(b byte) float64 {
		if b < 200 {
			return float64(b % 9)
		}
		return special[int(b-200)%len(special)]
	}
	pts := make([]Point, 0, len(data)/2)
	for i := 0; i+1 < len(data) && len(pts) < 256; i += 2 {
		pts = append(pts, Point{X: coord(data[i]), Y: coord(data[i+1]), Key: int64(len(pts))})
	}
	return pts
}

// FuzzNearestMatchesOnce: whatever the point set and the finite probe, the
// built tree's offset-bounded search and the one-pass NearestOnce return
// the same Result — Key, Found, and X, Y, DistSq bit for bit — with the
// excluded key present in the set or absent from it. A tree rebuilt in
// place from another scene must say the same.
func FuzzNearestMatchesOnce(f *testing.F) {
	f.Add([]byte{}, 0.0, 0.0, int64(-1))
	f.Add([]byte{0, 4, 4, 0, 8, 4, 4, 8}, 4.0, 4.0, int64(-1)) // four equidistant ties
	f.Fuzz(func(t *testing.T, data []byte, x, y float64, exclude int64) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Skip("NearestOnce takes finite probes only")
		}
		pts := nearestScene(data)
		want := NearestOnce(pts, x, y, exclude)
		if got := Build(pts).Nearest(x, y, exclude); !sameResult(got, want) {
			t.Fatalf("%d points, probe (%v, %v) excluding %d: tree %+v, NearestOnce %+v", len(pts), x, y, exclude, got, want)
		}
		recycled := Build(nearestScene(append([]byte{7, 1, 2, 8}, data...)))
		recycled.Rebuild(pts)
		if got := recycled.Nearest(x, y, exclude); !sameResult(got, want) {
			t.Fatalf("%d points, probe (%v, %v) excluding %d: rebuilt tree %+v, NearestOnce %+v", len(pts), x, y, exclude, got, want)
		}
	})
}

// TestNearestOnceMatchesBuild is the kD member of the unbuilt ≡ built
// contract: over lattice point sets — distance ties are the rule —
// salted with −0, subnormal and huge finite coordinates (squares and
// differences that overflow), probed from lattice and salted positions
// with and without an excluded key, the one-pass NearestOnce returns the
// built tree's Result field for field, bit for bit.
func TestNearestOnceMatchesBuild(t *testing.T) {
	special := []float64{math.Copysign(0, -1), 5e-324, 1e200, -math.MaxFloat64}
	for _, seed := range []uint64{3, 19, 77, 2048} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := rng.NewStream(rng.New(seed), 29)
			coord := func(specials int) float64 {
				if v := st.Intn(40); v < specials {
					return special[v]
				}
				return float64(st.Intn(9))
			}
			for scene := 0; scene < 120; scene++ {
				// A third of the scenes are plain lattices, a third add −0
				// and subnormals, a third huge magnitudes as well.
				specials := []int{0, 2, 4}[scene%3]
				n := []int{0, 1, 2, 3, 17, 64, 65}[scene%7] + st.Intn(3)
				pts := make([]Point, n)
				for i := range pts {
					pts[i] = Point{X: coord(specials), Y: coord(specials), Key: int64(i)}
				}
				tr := Build(pts)
				for probe := 0; probe < 30; probe++ {
					x, y := coord(specials), coord(specials)
					exclude := int64(st.Intn(n+2)) - 1
					got := NearestOnce(pts, x, y, exclude)
					if want := tr.Nearest(x, y, exclude); !sameResult(got, want) {
						t.Fatalf("scene %d (n=%d): NearestOnce(%v, %v, exclude %d) = %+v, built tree says %+v",
							scene, n, x, y, exclude, got, want)
					}
				}
			}
		})
	}
}

// TestNearestRankedLikeBruteForce: NearestRanked's winner is Nearest's
// bit for bit, its places are the brute-force ranking's, references
// included, and Rest is the
// least distance of every other point — on clustered integer grids,
// where equidistant ties abound, with the excluded key present or absent.
func TestNearestRankedLikeBruteForce(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		st := rng.NewStream(rng.New(seed), 29)
		for trial := 0; trial < 40; trial++ {
			n := st.Intn(60)
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = Point{X: float64(st.Intn(12)), Y: float64(st.Intn(12)), Key: int64(3*i + st.Intn(3)), Ref: int32(i)} // unique keys
			}
			tr := Build(pts)
			for probe := 0; probe < 10; probe++ {
				x, y := float64(st.Intn(14))-1, float64(st.Intn(14))-1
				exclude := int64(st.Intn(3 * (n + 1)))
				rk := tr.NearestRanked(x, y, exclude)
				if want := tr.Nearest(x, y, exclude); !sameResult(rk.Top[0], want) {
					t.Fatalf("seed %d: NearestRanked winner %+v, Nearest %+v", seed, rk.Top[0], want)
				}
				// The model: rank every point by (distance, key), the
				// excluded key left out.
				want := NewRanking()
				for _, p := range pts {
					if p.Key != exclude {
						dx, dy := p.X-x, p.Y-y
						want.Add(p, dx*dx+dy*dy)
					}
				}
				same := math.Float64bits(rk.Rest) == math.Float64bits(want.Rest)
				for i := range rk.Top {
					same = same && sameResult(rk.Top[i], want.Top[i])
				}
				if !same {
					t.Fatalf("seed %d: NearestRanked(%v,%v,excl=%d) = %+v, model %+v", seed, x, y, exclude, rk, want)
				}
			}
		}
	}
}

// TestRankingOrder: Add keeps the least (distance, key) pairs in order
// and the least of the rest, whatever the order points arrive in.
func TestRankingOrder(t *testing.T) {
	pts := []struct {
		key int64
		d   float64
	}{{5, 4}, {3, 4}, {9, 1}, {2, 9}, {1, 4}, {7, 1}, {8, 2}}
	r := NewRanking()
	for _, p := range pts {
		r.Add(Point{Key: p.key}, p.d)
	}
	var got []int64
	for _, top := range r.Top {
		got = append(got, top.Key)
	}
	if want := []int64{7, 9, 8, 1, 3}[:RankDepth]; !slices.Equal(got, want) || r.Rest != []float64{1, 2, 4, 4, 4}[RankDepth] {
		t.Fatalf("ranking %+v: want places %v (7 and 9 at 1, 8 at 2, 1 before 3 at 4), rest %v", r, want, []float64{1, 2, 4, 4, 4}[RankDepth])
	}
	one := NewRanking()
	one.Add(Point{Key: 4}, math.Inf(1))
	if !one.Top[0].Found || one.Top[1].Found || !math.IsInf(one.Rest, 1) {
		t.Fatalf("a lone point at infinity ranks as %+v", one)
	}
}
