package rangetree

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
)

// scene is one generated point set: coordinates on a coarse lattice (so
// duplicates are the rule), salted with ±0 and ±Inf, under a payload that
// is either small integers — every float sum exact, so the brute-force
// model must agree whatever the association — or adversarial fractions,
// where only an identical association reproduces the bits.
type scene struct {
	pts   []Point
	width int
	vals  []float64
	exact bool
}

// coord draws one lattice coordinate: mostly 0..11, sometimes a special.
func coord(next func(n int) int) float64 {
	switch v := next(20); v {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	default:
		return float64(v % 12)
	}
}

func genScene(n, width int, exact bool, next func(n int) int) scene {
	sc := scene{pts: make([]Point, n), width: width, vals: make([]float64, n*width), exact: exact}
	for i := range sc.pts {
		sc.pts[i] = Point{X: coord(next), Y: coord(next)}
	}
	for i := range sc.vals {
		if exact {
			sc.vals[i] = float64(next(19) - 9)
		} else {
			sc.vals[i] = float64(next(1<<20))/3 - 1e5
		}
		if next(16) == 0 {
			sc.vals[i] = math.Copysign(0, -1)
		}
	}
	return sc
}

func genRect(next func(n int) int) geom.Rect {
	r := geom.Rect{MinX: coord(next), MinY: coord(next)}
	r.MaxX, r.MaxY = r.MinX+float64(next(8)), r.MinY+float64(next(8))
	if next(6) == 0 {
		r.MinY, r.MaxY = math.Inf(-1), math.Inf(1)
	}
	if next(6) == 0 {
		r.MinX, r.MaxX = math.Inf(-1), math.Inf(1)
	}
	return r
}

// checkAgainstFreshBuild asserts that tr — however it got its contents —
// answers every query form exactly like a tree built from nothing over
// the same scene, and like the brute-force scan.
func checkAgainstFreshBuild(t testing.TB, tr *Tree, sc scene, next func(n int) int) {
	t.Helper()
	fresh := Build(sc.pts, sc.width, sc.vals)
	if tr.Len() != len(sc.pts) || tr.width != sc.width {
		t.Fatalf("Len/width = %d/%d, want %d/%d", tr.Len(), tr.width, len(sc.pts), sc.width)
	}
	sameBits := func(what string, r geom.Rect, got, want []float64) {
		t.Helper()
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("n=%d width=%d %s(%+v)[%d] = %v, fresh Build says %v", len(sc.pts), sc.width, what, r, c, got[c], want[c])
			}
		}
	}
	for probe := 0; probe < 24; probe++ {
		r := genRect(next)
		got, want := make([]float64, sc.width), make([]float64, sc.width)
		tr.Aggregate(r, got)
		fresh.Aggregate(r, want)
		sameBits("Aggregate", r, got, want)
		if sc.exact {
			for c, b := range bruteAggregate(sc.pts, sc.vals, sc.width, r) {
				if got[c] != b {
					t.Fatalf("n=%d Aggregate(%+v)[%d] = %v, brute force says %v", len(sc.pts), r, c, got[c], b)
				}
			}
		}
		got, want = make([]float64, sc.width), make([]float64, sc.width)
		tr.AggregateNoCascade(r, got)
		fresh.AggregateNoCascade(r, want)
		sameBits("AggregateNoCascade", r, got, want)

		var ids, freshIDs, brute []int
		tr.Report(r, func(i int) { ids = append(ids, i) })
		fresh.Report(r, func(i int) { freshIDs = append(freshIDs, i) })
		if !slices.Equal(ids, freshIDs) {
			t.Fatalf("n=%d Report(%+v) = %v, fresh Build reports %v", len(sc.pts), r, ids, freshIDs)
		}
		for i, p := range sc.pts {
			if inside(r, geom.Point{X: p.X, Y: p.Y}) {
				brute = append(brute, i)
			}
		}
		slices.Sort(ids)
		if !slices.Equal(ids, brute) {
			t.Fatalf("n=%d Report(%+v) = %v, brute force says %v", len(sc.pts), r, ids, brute)
		}
		if cnt := tr.Count(r); cnt != len(brute) {
			t.Fatalf("n=%d Count(%+v) = %d, want %d", len(sc.pts), r, cnt, len(brute))
		}
	}
}

// TestRebuildMatchesFreshBuild drives one Tree through a random walk of
// populations — growing, shrinking, empty, single, powers of two and not,
// payload widths 0..4 — and checks after every Rebuild that nothing of the
// previous contents (stale slab tails, old bridges, spare slots) shows
// through. Each seed is its own subtest (`-run 'Rebuild/seed=7'`).
func TestRebuildMatchesFreshBuild(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := rng.NewStream(rng.New(seed), 11)
			tr := &Tree{}
			sizes := []int{0, 1, 2, 3, 64, 65, 5, 127, 128, 1, 0, 33}
			for step := 0; step < 60; step++ {
				n := st.Intn(90)
				if step < len(sizes) {
					n = sizes[step]
				}
				sc := genScene(n, st.Intn(5), st.Intn(2) == 0, st.Intn)
				tr.Rebuild(sc.pts, sc.width, sc.vals)
				checkAgainstFreshBuild(t, tr, sc, st.Intn)
			}
		})
	}
}

// FuzzRebuildMatchesBuild is the same property with the fuzzer choosing
// the walk: every byte pair of the input is one (size, width) step, the
// rest of the scene comes from a stream seeded by the input.
func FuzzRebuildMatchesBuild(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 1, 2, 2, 3, 3})
	f.Add(uint64(2), []byte{200, 4, 3, 0, 255, 1, 0, 2, 16, 3, 17, 4})
	f.Add(uint64(3), []byte{64, 1, 63, 1, 65, 1, 128, 2, 127, 2})
	f.Add(uint64(4), []byte{9, 3})
	f.Fuzz(func(t *testing.T, seed uint64, walk []byte) {
		if len(walk) > 64 {
			walk = walk[:64]
		}
		st := rng.NewStream(rng.New(seed), 13)
		tr := &Tree{}
		for i := 0; i+1 < len(walk); i += 2 {
			sc := genScene(int(walk[i]), int(walk[i+1])%5, walk[i+1]&0x80 == 0, st.Intn)
			tr.Rebuild(sc.pts, sc.width, sc.vals)
			checkAgainstFreshBuild(t, tr, sc, st.Intn)
		}
	})
}

// Repatch must be bit-identical to a fresh Build over the same points
// with the new payloads — the property exec's tier-2 maintenance relies
// on. Payloads here are adversarial floats, not integers: bit equality
// must come from identical association, not exactness.
func TestRepatchBitIdenticalToBuild(t *testing.T) {
	for _, seed := range []uint64{3, 21, 77} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := rng.NewStream(rng.New(seed), 5)
			n := 30 + st.Intn(50)
			const width = 3
			pts := make([]Point, n)
			vals := make([]float64, n*width)
			for i := range pts {
				pts[i] = Point{X: st.Float64() * 100, Y: st.Float64() * 100}
				for c := 0; c < width; c++ {
					vals[i*width+c] = st.Float64()*1e3 - 500
				}
			}
			tr := Build(pts, width, vals)

			newVals := make([]float64, n*width)
			for i := range newVals {
				newVals[i] = st.Float64()*1e-3 + st.Float64()*1e6
			}
			tr.Repatch(newVals)
			oracle := Build(pts, width, newVals)

			for probe := 0; probe < 200; probe++ {
				r := rectAround(geom.Point{X: st.Float64() * 100, Y: st.Float64() * 100},
					st.Float64()*40)
				got := make([]float64, width)
				want := make([]float64, width)
				tr.Aggregate(r, got)
				oracle.Aggregate(r, want)
				for c := range want {
					if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
						t.Fatalf("probe %d col %d: repatched %v, rebuilt %v", probe, c, got[c], want[c])
					}
				}
			}
		})
	}
}
