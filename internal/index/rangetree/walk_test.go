package rangetree

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/index/sorted"
	"github.com/epicscale/sgl/internal/rng"
)

// walk is a point set under bounded motion, the way a battle's units move
// from tick to tick: each step changes it by one kind of motion, and the
// tree rebuilt over it must equal a fresh build, slab for slab.
type walk struct {
	pts   []Point
	width int
	side  int
	next  func(n int) int
	nan   int // index of the point holding a NaN coordinate, or −1
}

func newWalk(n, width int, next func(n int) int) *walk {
	w := &walk{width: width, side: 8 + n/2, next: next, nan: -1}
	for range n {
		w.pts = append(w.pts, w.randomPoint())
	}
	return w
}

func (w *walk) randomPoint() Point {
	return Point{X: float64(w.next(w.side)), Y: float64(w.next(w.side))}
}

// step applies motion kind k (0–5) and names it.
func (w *walk) step(k int) string {
	n := len(w.pts)
	switch {
	case k == 0 || n == 0: // every point moves at most one square
		for i := range w.pts {
			if i == w.nan {
				continue
			}
			w.pts[i].X += float64(w.next(3) - 1)
			w.pts[i].Y += float64(w.next(3) - 1)
			if w.next(40) == 0 {
				w.pts[i].X = math.Copysign(0, -1)
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
				w.pts[i] = w.randomPoint()
			}
		}
		return fmt.Sprintf("teleport %d", m)
	case k == 2: // two points trade places
		i, j := w.next(n), w.next(n)
		w.pts[i], w.pts[j] = w.pts[j], w.pts[i]
		switch w.nan {
		case i:
			w.nan = j
		case j:
			w.nan = i
		}
		return "swap"
	case k == 3: // a NaN coordinate appears, or the one there is cleared
		if w.nan >= 0 {
			w.pts[w.nan] = w.randomPoint()
			w.nan = -1
			return "NaN removed"
		}
		w.nan = w.next(n)
		if w.next(2) == 0 {
			w.pts[w.nan].X = math.NaN()
		} else {
			w.pts[w.nan].Y = math.NaN()
		}
		return "NaN injected"
	case k == 4: // the population grows or shrinks by one
		if w.next(2) == 0 && n > 1 {
			i := w.next(n)
			w.pts = slices.Delete(w.pts, i, i+1)
			switch {
			case w.nan == i:
				w.nan = -1
			case w.nan > i:
				w.nan--
			}
			return "shrink"
		}
		w.pts = append(w.pts, w.randomPoint())
		return "grow"
	default: // nothing moves
		return "still"
	}
}

func (w *walk) vals() []float64 {
	vals := make([]float64, len(w.pts)*w.width)
	for i := range vals {
		vals[i] = float64(w.next(1<<20))/3 - 1e5
	}
	return vals
}

// sameSlabs reports the first slab in which a and b differ, bit for bit,
// over the slots a build writes (each node's points, its bridges and
// prefixes one longer), or "".
func sameSlabs(a, b *Tree) string {
	if a.n != b.n || a.width != b.width {
		return fmt.Sprintf("n/width %d/%d vs %d/%d", a.n, a.width, b.n, b.width)
	}
	if a.n == 0 {
		return ""
	}
	bits := func(f []float64) []uint64 {
		u := make([]uint64, len(f))
		for i, v := range f {
			u[i] = math.Float64bits(v)
		}
		return u
	}
	if !slices.Equal(a.order, b.order) {
		return "order"
	}
	if !slices.Equal(bits(a.xs), bits(b.xs)) {
		return "xs"
	}
	if !a.gx.Equal(&b.gx) {
		return "x guide"
	}
	if !a.gy.Equal(&b.gy) {
		return "y guide"
	}
	var diff string
	var visit func(nd node)
	visit = func(nd node) {
		off, size, w := a.off(nd), nd.size(), a.width
		switch {
		case !slices.Equal(bits(a.ys[off:off+size]), bits(b.ys[off:off+size])):
			diff = fmt.Sprintf("ys of node %+v", nd)
		case !slices.Equal(a.ids[off:off+size], b.ids[off:off+size]):
			diff = fmt.Sprintf("ids of node %+v", nd)
		case !slices.Equal(bits(a.prefix[off*w:(off+size+1)*w]), bits(b.prefix[off*w:(off+size+1)*w])):
			diff = fmt.Sprintf("prefix of node %+v", nd)
		case size > 1 && !slices.Equal(a.bl[off:off+size+1], b.bl[off:off+size+1]):
			diff = fmt.Sprintf("bl of node %+v", nd)
		case size > 1 && !slices.Equal(a.br[off:off+size+1], b.br[off:off+size+1]):
			diff = fmt.Sprintf("br of node %+v", nd)
		case size > 1:
			l, r := nd.children()
			visit(l)
			if diff == "" {
				visit(r)
			}
		}
	}
	visit(a.root())
	return diff
}

// runWalk rebuilds one tree in place over the walk's point set after every
// step and holds it to a fresh build, returning the re-sorts' work.
func runWalk(t testing.TB, w *walk, kinds []int) sorted.Work {
	t.Helper()
	tr := &Tree{}
	var work sorted.Work
	for s, k := range kinds {
		what := w.step(k)
		vals := w.vals()
		work.Add(tr.Rebuild(w.pts, w.width, vals))
		fresh := Build(w.pts, w.width, vals)
		if d := sameSlabs(tr, fresh); d != "" {
			t.Fatalf("step %d (%s, n=%d): rebuilt tree differs from a fresh build in %s", s, what, len(w.pts), d)
		}
		if w.nan < 0 { // a point with a NaN coordinate has no brute-force answer
			checkAgainstFreshBuild(t, tr, scene{pts: w.pts, width: w.width, vals: vals}, w.next)
		}
	}
	return work
}

// TestRebuildUnderBoundedMotion walks point sets the way a battle moves
// its units — jitter of one square, a few teleports, swaps, a NaN that
// comes and goes, a unit arriving or leaving — so rebuilds start from the
// previous tick's order (the re-sort path TestRebuildMatchesFreshBuild's
// fresh scenes never reach), and holds every slab of the rebuilt tree to
// a fresh build's, bit for bit.
func TestRebuildUnderBoundedMotion(t *testing.T) {
	var total sorted.Work
	for _, seed := range []uint64{1, 2, 3, 42} {
		for _, n := range []int{1, 2, 7, 64, 300} {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				st := rng.NewStream(rng.New(seed), int64(n))
				w := newWalk(n, 1+st.Intn(3), st.Intn)
				kinds := make([]int, 40)
				for i := range kinds {
					kinds[i] = []int{0, 0, 0, 0, 1, 2, 3, 4, 5}[st.Intn(9)]
				}
				total.Add(runWalk(t, w, kinds))
			})
		}
	}
	if total.Points == 0 || total.Moved == 0 || total.Fallbacks == 0 {
		t.Fatalf("the walks re-sorted %d points, moved %d, fell back %d times: some path went untested", total.Points, total.Moved, total.Fallbacks)
	}
}

// FuzzRebuildUnderBoundedMotion is the same walk with the fuzzer choosing
// the size and the motions: each input byte is one step.
func FuzzRebuildUnderBoundedMotion(f *testing.F) {
	f.Add(uint64(1), uint8(40), []byte{0, 0, 1, 2, 3, 0, 3, 4, 0, 5})
	f.Add(uint64(2), uint8(3), []byte{4, 4, 4, 0, 2, 3, 2, 0, 3})
	f.Add(uint64(3), uint8(200), []byte{1, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, n uint8, steps []byte) {
		if len(steps) > 48 {
			steps = steps[:48]
		}
		st := rng.NewStream(rng.New(seed), 17)
		w := newWalk(int(n), 1+st.Intn(3), st.Intn)
		kinds := make([]int, len(steps))
		for i, b := range steps {
			kinds[i] = int(b % 6)
		}
		runWalk(t, w, kinds)
	})
}
