// Package sorted holds the two tools a per-tick rebuild of a sorted index
// uses to exploit that its points moved little since the last tick:
// Resort, which sorts a permutation starting from the order it held, and
// Guide, which finds where a value's bounds lie in a sorted slice in O(1)
// expected time instead of a binary search over all of it.
//
// Both are exact. Under a comparison that is a total order a sorted
// permutation is unique, so Resort yields the permutation a sort from the
// identity yields, whatever it starts from. And a Guide's bounds are the
// binary search's, to the index.
package sorted

import (
	"math"
	"slices"
)

// moveBudget is how many element moves per element Resort's insertion
// pass may spend before it finishes with a full sort instead.
const moveBudget = 4

// Work counts what re-sorts did, for the executor's work counters.
type Work struct {
	Points    int // elements sorted starting from their previous order
	Moved     int // element moves the insertion passes made
	Fallbacks int // passes that spent their budget and finished with a full sort
}

// Add accumulates o into w.
func (w *Work) Add(o Work) {
	w.Points += o.Points
	w.Moved += o.Moved
	w.Fallbacks += o.Fallbacks
}

// Resort sorts s by cmp, starting from the order s holds: an insertion
// pass that costs O(len(s) + elements moved), so a permutation that was
// sorted under last tick's coordinates re-sorts in near-linear time.
// When the pass has moved more than a constant times len(s) elements it
// finishes with slices.SortFunc, so the worst case stays O(n log n).
//
// cmp must be a total order: cmp(a, b) == 0 only when a == b. Then the
// sorted permutation is unique, and Resort's result is slices.SortFunc's
// whatever s held.
func Resort[T any](s []T, cmp func(a, b T) int) Work {
	w := Work{Points: len(s)}
	budget := moveBudget * len(s)
	for i := 1; i < len(s); i++ {
		v, j := s[i], i
		for j > 0 && cmp(v, s[j-1]) < 0 {
			s[j] = s[j-1]
			j--
		}
		s[j] = v
		if w.Moved += i - j; w.Moved > budget {
			slices.SortFunc(s, cmp)
			w.Fallbacks++
			return w
		}
	}
	return w
}

// Guide locates bounds in one ascending slice a. It splits a's span
// [a[0], a[len−1]] into len(a) equal buckets: b(v) = ⌊(v − a[0])·inv⌋,
// clamped to [0, buckets−1] in float before the integer conversion, and
// idx[b] is the number of values whose bucket is below b. Correctly
// rounded subtraction and multiplication by inv > 0 are monotone, so
// v ≤ w implies b(v) ≤ b(w): every value below idx[b(v)] is smaller than
// v, every value from idx[b(v)+1] on is larger, and both of v's bounds
// lie in [idx[b(v)], idx[b(v)+1]]. That interval is searched; on points
// spread like a battle's it holds one or two values.
//
// Spans the buckets cannot divide — all values equal, n = 1, an infinite
// end, a span that overflows or whose inverse does — get a single bucket,
// which is the plain binary search. A NaN bound takes the plain search
// too (it answers len(a), as it always has). The zero value, and a Guide
// reset with Search, answers every bound by the plain search.
type Guide struct {
	a       []float64
	lo, inv float64
	top     float64 // buckets − 1
	idx     []int32 // buckets+1 entries when guided, none when not
}

// Reset builds g over a, which must be ascending and free of NaN, into
// g's storage: O(len(a)), no allocation once the storage has grown. g
// keeps a, and answers bounds over it until the next Reset or Search.
func (g *Guide) Reset(a []float64) {
	n := len(a)
	if n == 0 {
		g.Search(a)
		return
	}
	buckets := n
	g.a, g.lo, g.inv = a, a[0], float64(buckets)/(a[n-1]-a[0])
	if !(g.inv > 0) || g.inv > math.MaxFloat64 {
		buckets, g.inv = 1, 0
	}
	g.top = float64(buckets - 1)
	if cap(g.idx) < buckets+1 {
		g.idx = make([]int32, buckets+1, buckets+1+buckets/4)
	}
	g.idx = g.idx[:buckets+1]
	b := 0
	g.idx[0] = 0
	for i, v := range a {
		for bv := g.bucket(v); b < bv; {
			b++
			g.idx[b] = int32(i)
		}
	}
	for b < buckets {
		b++
		g.idx[b] = int32(n)
	}
}

// Search makes g answer bounds over a by the plain binary search, for a
// slice that holds a NaN or is not sorted under a total order: the
// bounds of such a slice are whatever the search's probes find, and only
// the same probes find the same.
func (g *Guide) Search(a []float64) {
	*g = Guide{a: a, idx: g.idx[:0]}
}

// bucket is b(v) for a non-NaN v.
func (g *Guide) bucket(v float64) int {
	x := (v - g.lo) * g.inv
	if !(x >= 0) {
		x = 0
	}
	if x > g.top {
		x = g.top
	}
	return int(x)
}

// window is the range of a that holds v's bounds.
func (g *Guide) window(v float64) (int, int) {
	if len(g.idx) == 0 || v != v {
		return 0, len(g.a)
	}
	b := g.bucket(v)
	return int(g.idx[b]), int(g.idx[b+1])
}

// Span returns the index range [l, h) of the values of a inside [lo, hi]
// — l the first value not below lo (the number of values below it),
// h the first above hi (the number not above it), either len(a) for a
// NaN bound — and the comparisons its two searches made.
func (g *Guide) Span(lo, hi float64) (l, h, steps int) {
	wl, wh := g.window(lo)
	l, s1 := lowerIn(g.a, wl, wh, lo)
	wl, wh = g.window(hi)
	h, s2 := upperIn(g.a, wl, wh, hi)
	return l, h, s1 + s2
}

// Equal reports whether g and o are the same guide, bit for bit, over
// slices with the same bits: what a rebuild's differential tests hold a
// rebuilt structure's guides to.
func (g *Guide) Equal(o *Guide) bool {
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	return same(g.a, o.a) && slices.Equal(g.idx, o.idx) &&
		same([]float64{g.lo, g.inv, g.top}, []float64{o.lo, o.inv, o.top})
}

// LowerBound is the plain binary search: the index of the first value of
// a not below v.
func LowerBound(a []float64, v float64) int {
	pos, _ := lowerIn(a, 0, len(a), v)
	return pos
}

// UpperBound is the plain binary search: the index of the first value of
// a above v.
func UpperBound(a []float64, v float64) int {
	pos, _ := upperIn(a, 0, len(a), v)
	return pos
}

// lowerIn binary-searches a[lo:hi] for the first value not below v,
// counting its comparisons.
func lowerIn(a []float64, lo, hi int, v float64) (int, int) {
	steps := 0
	for lo < hi {
		steps++
		if m := int(uint(lo+hi) >> 1); !(a[m] >= v) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, steps
}

// upperIn binary-searches a[lo:hi] for the first value above v, counting
// its comparisons.
func upperIn(a []float64, lo, hi int, v float64) (int, int) {
	steps := 0
	for lo < hi {
		steps++
		if m := int(uint(lo+hi) >> 1); !(a[m] > v) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, steps
}
