package kdtree

import (
	"fmt"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
)

// bruteNearest is the reference nearest-neighbour over a live point list,
// with the tree's exact tie rules (smaller key wins).
func bruteNearestLive(pts []Point, live []bool, x, y float64, exclude int64, maxDist float64) Result {
	best := Result{DistSq: maxDist * maxDist}
	if math.IsInf(maxDist, 1) {
		best.DistSq = math.Inf(1)
	}
	for i, p := range pts {
		if !live[i] || p.Key == exclude {
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

// TestDynamicOpsAgainstModel interleaves Insert/Remove/Patch with Nearest
// and KNearest probes against a brute-force model. Nearest answers are a
// pure function of the live point set (ties break by key), so equality is
// exact. Failures name the seed subtest to replay.
func TestDynamicOpsAgainstModel(t *testing.T) {
	for _, seed := range []uint64{2, 13, 42, 512} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := rng.NewStream(rng.New(seed), 23)
			n := 15 + st.Intn(40)
			pts := make([]Point, n)
			live := make([]bool, n)
			for i := range pts {
				pts[i] = Point{X: float64(st.Intn(50)), Y: float64(st.Intn(50)), Key: int64(i)}
				live[i] = true
			}
			tr := Build(pts)
			nextKey := int64(n)

			check := func(op int) {
				t.Helper()
				for probe := 0; probe < 10; probe++ {
					x, y := float64(st.Intn(50)), float64(st.Intn(50))
					exclude := int64(st.Intn(n)) // may or may not be live
					maxDist := math.Inf(1)
					if st.Intn(2) == 0 {
						maxDist = float64(5 + st.Intn(20))
					}
					want := bruteNearestLive(pts, live, x, y, exclude, maxDist)
					got := tr.Nearest(x, y, exclude, maxDist)
					if want != got {
						t.Fatalf("op %d: Nearest(%v,%v,excl=%d,max=%v) = %+v, want %+v",
							op, x, y, exclude, maxDist, got, want)
					}
					k := 1 + st.Intn(4)
					kn := tr.KNearest(x, y, exclude, k)
					// Verify KNearest against repeated brute nearest with
					// progressive exclusion by checking order and membership.
					prev := Result{DistSq: -1}
					seen := map[int64]bool{}
					for _, r := range kn {
						if !live[keyIndex(pts, r.Key)] {
							t.Fatalf("op %d: KNearest returned dead key %d", op, r.Key)
						}
						if r.DistSq < prev.DistSq || (r.DistSq == prev.DistSq && r.Key < prev.Key) {
							t.Fatalf("op %d: KNearest out of order: %+v after %+v", op, r, prev)
						}
						if seen[r.Key] || r.Key == exclude {
							t.Fatalf("op %d: KNearest bad key %d", op, r.Key)
						}
						seen[r.Key] = true
						prev = r
					}
					liveCount := 0
					for i := range pts {
						if live[i] && pts[i].Key != exclude {
							liveCount++
						}
					}
					wantLen := k
					if liveCount < k {
						wantLen = liveCount
					}
					if len(kn) != wantLen {
						t.Fatalf("op %d: KNearest returned %d results, want %d", op, len(kn), wantLen)
					}
				}
			}

			check(-1)
			for op := 0; op < 50; op++ {
				switch st.Intn(3) {
				case 0: // insert a fresh key
					p := Point{X: float64(st.Intn(60)), Y: float64(st.Intn(60)), Key: nextKey}
					nextKey++
					tr.Insert(p)
					pts = append(pts, p)
					live = append(live, true)
				case 1: // remove a random live key
					ids := liveKeys(pts, live)
					if len(ids) == 0 {
						continue
					}
					key := ids[st.Intn(len(ids))]
					if !tr.Remove(key) {
						t.Fatalf("op %d: Remove(%d) failed on live key", op, key)
					}
					if tr.Remove(key) {
						t.Fatalf("op %d: double Remove(%d) succeeded", op, key)
					}
					live[keyIndex(pts, key)] = false
				case 2: // move a random live key
					ids := liveKeys(pts, live)
					if len(ids) == 0 {
						continue
					}
					key := ids[st.Intn(len(ids))]
					x, y := float64(st.Intn(60)), float64(st.Intn(60))
					if !tr.Patch(key, x, y) {
						t.Fatalf("op %d: Patch(%d) failed on live key", op, key)
					}
					i := keyIndex(pts, key)
					live[i] = false
					pts = append(pts, Point{X: x, Y: y, Key: key})
					live = append(live, true)
				}
				check(op)
			}
		})
	}
}

// keyIndex finds the last occurrence of key (patched points re-appear at
// the tail, mirroring the tree's young buffer).
func keyIndex(pts []Point, key int64) int {
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].Key == key {
			return i
		}
	}
	return -1
}

func liveKeys(pts []Point, live []bool) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for i := len(pts) - 1; i >= 0; i-- {
		if live[i] && !seen[pts[i].Key] {
			seen[pts[i].Key] = true
			out = append(out, pts[i].Key)
		}
	}
	return out
}

func TestInsertLiveKeyPanics(t *testing.T) {
	tr := Build([]Point{{X: 1, Y: 1, Key: 5}})
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of a live key should panic")
		}
	}()
	tr.Insert(Point{X: 2, Y: 2, Key: 5})
}

// TestNearestOnceMatchesBuild is the kD member of the unbuilt ≡ built
// contract: over lattice point sets — distance ties are the rule —
// salted with ±0, ±Inf and NaN coordinates, probed from lattice, infinite
// and NaN positions with and without an excluded key, the one-pass
// NearestOnce returns the built tree's Result field for field, bit for
// bit.
func TestNearestOnceMatchesBuild(t *testing.T) {
	special := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
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
				// A third of the scenes are plain lattices, a third add ±0
				// and ±Inf, a third add NaN as well.
				specials := []int{0, 3, 4}[scene%3]
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
					want := tr.Nearest(x, y, exclude, math.Inf(1))
					if got.Found != want.Found || got.Key != want.Key ||
						math.Float64bits(got.X) != math.Float64bits(want.X) ||
						math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
						math.Float64bits(got.DistSq) != math.Float64bits(want.DistSq) {
						t.Fatalf("scene %d (n=%d): NearestOnce(%v, %v, exclude %d) = %+v, built tree says %+v",
							scene, n, x, y, exclude, got, want)
					}
				}
			}
		})
	}
}
