package sweepline

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/index/sorted"
	"github.com/epicscale/sgl/internal/rng"
)

// siteWalk is a site set under bounded motion, the way a battle's units
// move from tick to tick; an Order rebuilt over it after every step must
// equal a fresh one.
type siteWalk struct {
	sites []Site
	side  int
	next  func(n int) int
	nan   int // index of the site holding a NaN coordinate, or −1
}

func newSiteWalk(n int, next func(n int) int) *siteWalk {
	w := &siteWalk{side: 8 + n/2, next: next, nan: -1}
	for range n {
		w.sites = append(w.sites, w.randomSite())
	}
	return w
}

// randomSite draws a lattice site; keys repeat, so the index tie-break
// is exercised.
func (w *siteWalk) randomSite() Site {
	return Site{X: float64(w.next(w.side)), Y: float64(w.next(w.side)), Key: int64(w.next(w.side))}
}

// step applies motion kind k (0–5) and names it.
func (w *siteWalk) step(k int) string {
	n := len(w.sites)
	switch {
	case k == 0 || n == 0: // every site moves at most one square
		for i := range w.sites {
			if i == w.nan {
				continue
			}
			w.sites[i].X += float64(w.next(3) - 1)
			w.sites[i].Y += float64(w.next(3) - 1)
			if w.next(40) == 0 {
				w.sites[i].Y = math.Copysign(0, -1)
			}
		}
		return "jitter"
	case k == 1: // a few teleports, now and then all of them
		m := 1 + w.next(3)
		if w.next(4) == 0 {
			m = n
		}
		for range m {
			if i := w.next(n); i != w.nan {
				w.sites[i] = w.randomSite()
			}
		}
		return fmt.Sprintf("teleport %d", m)
	case k == 2: // two sites trade places
		i, j := w.next(n), w.next(n)
		w.sites[i], w.sites[j] = w.sites[j], w.sites[i]
		switch w.nan {
		case i:
			w.nan = j
		case j:
			w.nan = i
		}
		return "swap"
	case k == 3: // a NaN coordinate appears, or the one there is cleared
		if w.nan >= 0 {
			w.sites[w.nan] = w.randomSite()
			w.nan = -1
			return "NaN removed"
		}
		w.nan = w.next(n)
		if w.next(2) == 0 {
			w.sites[w.nan].X = math.NaN()
		} else {
			w.sites[w.nan].Y = math.NaN()
		}
		return "NaN injected"
	case k == 4: // the population grows or shrinks by one
		if w.next(2) == 0 && n > 1 {
			i := w.next(n)
			w.sites = slices.Delete(w.sites, i, i+1)
			switch {
			case w.nan == i:
				w.nan = -1
			case w.nan > i:
				w.nan--
			}
			return "shrink"
		}
		w.sites = append(w.sites, w.randomSite())
		return "grow"
	default:
		return "still"
	}
}

// sameOrder reports the first of a's orderings that differs from b's,
// bit for bit, or "".
func sameOrder(a, b *Order) string {
	bits := func(f []float64) []uint64 {
		u := make([]uint64, len(f))
		for i, v := range f {
			u[i] = math.Float64bits(v)
		}
		return u
	}
	switch {
	case !slices.EqualFunc(a.sites, b.sites, func(x, y Site) bool {
		return math.Float64bits(x.X) == math.Float64bits(y.X) && math.Float64bits(x.Y) == math.Float64bits(y.Y) && x.Key == y.Key
	}):
		return "sites"
	case !slices.Equal(bits(a.xs), bits(b.xs)):
		return "xs"
	case !slices.Equal(a.rank, b.rank):
		return "rank"
	case !slices.Equal(a.byX, b.byX):
		return "byX"
	case !slices.Equal(a.byY, b.byY):
		return "byY"
	case !a.guide.Equal(&b.guide):
		return "guide"
	}
	return ""
}

// runSiteWalk rebuilds one Order in place after every step, holds it to a
// fresh Order, and sweeps both, and the reference sweep where no site is
// NaN; it returns the re-sorts' work.
func runSiteWalk(t testing.TB, w *siteWalk, kinds []int) sorted.Work {
	t.Helper()
	var o Order
	var sw, fsw Sweeper
	var work sorted.Work
	for s, k := range kinds {
		what := w.step(k)
		work.Add(o.Rebuild(w.sites))
		var fresh Order
		fresh.Rebuild(w.sites)
		if d := sameOrder(&o, &fresh); d != "" {
			t.Fatalf("step %d (%s, n=%d): rebuilt order differs from a fresh one in %s", s, what, len(w.sites), d)
		}
		vals := make([]float64, len(w.sites))
		probes := make([]Probe, len(w.sites)/2+1)
		for i := range vals {
			vals[i] = float64(w.next(9))
		}
		for i := range probes {
			probes[i] = Probe{X: float64(w.next(w.side)), Y: float64(w.next(w.side)), RX: float64(w.next(4)), Exclude: NoExclude}
			if w.next(20) == 0 {
				probes[i].Y = math.NaN()
			}
		}
		got := slices.Clone(sw.Sweep(&o, vals, probes, 2, segtree.Max))
		want := fsw.Sweep(&fresh, vals, probes, 2, segtree.Max)
		var ref []Result
		if w.nan < 0 {
			// The reference sorts everything stably, NaN probes included.
			points := make([]Point, len(w.sites))
			for i, st := range w.sites {
				points[i] = Point{X: st.X, Y: st.Y, Value: vals[i], Key: st.Key}
			}
			ref = refSweep(points, probes, 2, segtree.Max)
		}
		for i := range want {
			if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) || got[i].Key != want[i].Key || got[i].Found != want[i].Found {
				t.Fatalf("step %d (%s): probe %d swept %+v, fresh order %+v", s, what, i, got[i], want[i])
			}
			if ref != nil && got[i] != ref[i] {
				t.Fatalf("step %d (%s): probe %d (%+v) swept %+v, reference sweep %+v", s, what, i, probes[i], got[i], ref[i])
			}
		}
	}
	return work
}

// TestOrderRebuildUnderBoundedMotion walks site sets the way a battle
// moves its units — jitter, a few teleports, swaps, a NaN that comes and
// goes, arrivals and departures — so rebuilds start from the previous
// orderings, and holds every slab of the rebuilt Order (byX, byY, rank,
// xs, the guide) to a fresh one's, and its sweeps to a fresh Order's and,
// with no NaN site, to the reference sweep's (NaN probes included).
func TestOrderRebuildUnderBoundedMotion(t *testing.T) {
	var total sorted.Work
	for _, seed := range []uint64{1, 2, 3, 42} {
		for _, n := range []int{1, 2, 7, 64, 300} {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				st := rng.NewStream(rng.New(seed), int64(n))
				w := newSiteWalk(n, st.Intn)
				kinds := make([]int, 40)
				for i := range kinds {
					kinds[i] = []int{0, 0, 0, 0, 1, 2, 3, 4, 5}[st.Intn(9)]
				}
				total.Add(runSiteWalk(t, w, kinds))
			})
		}
	}
	if total.Points == 0 || total.Moved == 0 || total.Fallbacks == 0 {
		t.Fatalf("the walks re-sorted %d points, moved %d, fell back %d times: some path went untested", total.Points, total.Moved, total.Fallbacks)
	}
}

// FuzzOrderRebuildUnderBoundedMotion is the same walk with the fuzzer
// choosing the size and the motions: each input byte is one step.
func FuzzOrderRebuildUnderBoundedMotion(f *testing.F) {
	f.Add(uint64(1), uint8(40), []byte{0, 0, 1, 2, 3, 0, 3, 4, 0, 5})
	f.Add(uint64(2), uint8(3), []byte{4, 4, 4, 0, 2, 3, 2, 0, 3})
	f.Add(uint64(3), uint8(200), []byte{1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, steps []byte) {
		if len(steps) > 48 {
			steps = steps[:48]
		}
		st := rng.NewStream(rng.New(seed), 19)
		w := newSiteWalk(int(n), st.Intn)
		kinds := make([]int, len(steps))
		for i, b := range steps {
			kinds[i] = int(b % 6)
		}
		runSiteWalk(t, w, kinds)
	})
}
