// Package kdtree implements the 2-d tree used for spatial aggregates such
// as nearest-neighbour queries (paper Section 5.3.2).
//
// The paper places kD-trees at the lowest level of a layered structure:
// categorical selections (player, unit type, "whose armor we can
// penetrate") are handled by building one tree per partition above this
// package, then each probe is answered by the partition's tree. Queries
// support an exclusion key (a unit is never its own nearest enemy) and an
// optional maximum radius (visibility range).
//
// Like the other per-tick indexes, a tree is rebuilt rather than updated:
// Rebuild lays a new point set out in the storage the tree already has, so
// a population of steady size rebuilds without allocating.
package kdtree

import (
	"cmp"
	"math"
	"slices"
)

// Point is an indexed location with its unit key.
type Point struct {
	X, Y float64
	Key  int64
}

// Tree is a 2-d tree, safe for concurrent reads; Rebuild needs exclusive
// access. The zero value is an empty tree.
//
// The tree is implicit: the node covering pts[lo:hi] splits at mid =
// lo + (hi−lo)/2, its children cover pts[lo:mid] and pts[mid+1:hi], and
// boxes[mid] is the bounding box of its points. Every position is the
// split point of exactly one node, so the boxes take one flat slot per
// point and no node structs exist.
type Tree struct {
	pts   []Point // points in tree layout order
	boxes []box   // by split position: the bounding box of that node's points
}

// box is an axis-aligned bounding box over the non-NaN coordinates of a
// node's points. An axis on which every point is NaN is empty (min +Inf,
// max −Inf).
type box struct{ minX, minY, maxX, maxY float64 }

var emptyBox = box{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}

func (b *box) add(o box) {
	if o.minX < b.minX {
		b.minX = o.minX
	}
	if o.maxX > b.maxX {
		b.maxX = o.maxX
	}
	if o.minY < b.minY {
		b.minY = o.minY
	}
	if o.maxY > b.maxY {
		b.maxY = o.maxY
	}
}

// distSq is the squared distance from (x, y) to b — a lower bound, under
// any monotone rounding, on the squared distance from (x, y) to every
// point in b that is not at a NaN distance. Never NaN: a NaN probe
// coordinate contributes 0.
func (b *box) distSq(x, y float64) float64 {
	var dx, dy float64
	if x < b.minX {
		dx = b.minX - x
	} else if x > b.maxX {
		dx = x - b.maxX
	}
	if y < b.minY {
		dy = b.minY - y
	} else if y > b.maxY {
		dy = y - b.maxY
	}
	return dx*dx + dy*dy
}

// Build constructs a new tree; see Rebuild.
func Build(pts []Point) *Tree {
	t := &Tree{}
	t.Rebuild(pts)
	return t
}

// Rebuild makes t the balanced 2-d tree over pts in O(n log n), discarding
// whatever t held and reusing its storage when the capacity suffices. pts
// is neither modified nor retained. The result is a pure function of pts:
// a rebuilt tree answers every query bit-identically to a fresh Build.
func (t *Tree) Rebuild(pts []Point) {
	t.pts = append(t.pts[:0], pts...)
	build(t.pts, 0)
	t.boxes = slices.Grow(t.boxes[:0], len(pts))[:len(pts)]
	if len(pts) > 0 {
		t.fillBoxes(0, len(pts))
	}
}

// build recursively partitions pts around the median along the split axis
// (0 = x, 1 = y, alternating by depth).
func build(pts []Point, axis int) {
	if len(pts) <= 1 {
		return
	}
	mid := len(pts) / 2
	nthElement(pts, mid, axis)
	build(pts[:mid], 1-axis)
	build(pts[mid+1:], 1-axis)
}

// fillBoxes computes the boxes of the subtree over pts[lo:hi] bottom-up
// and returns its root's.
func (t *Tree) fillBoxes(lo, hi int) box {
	mid := lo + (hi-lo)/2
	p := t.pts[mid]
	b := emptyBox
	b.add(box{p.X, p.Y, p.X, p.Y})
	if lo < mid {
		b.add(t.fillBoxes(lo, mid))
	}
	if mid+1 < hi {
		b.add(t.fillBoxes(mid+1, hi))
	}
	t.boxes[mid] = b
	return b
}

// nthElement partially sorts pts so pts[k] holds the k-th smallest element
// along the axis, smaller elements before and larger after (quickselect
// with median-of-three pivots; ties broken by the other axis then key for
// determinism).
func nthElement(pts []Point, k, axis int) {
	lo, hi := 0, len(pts)-1
	for lo < hi {
		if hi-lo < 16 {
			insertionSort(pts[lo:hi+1], axis)
			return
		}
		p := medianOfThree(pts, lo, (lo+hi)/2, hi, axis)
		pts[p], pts[hi] = pts[hi], pts[p]
		store := lo
		for i := lo; i < hi; i++ {
			if less(pts[i], pts[hi], axis) {
				pts[i], pts[store] = pts[store], pts[i]
				store++
			}
		}
		pts[store], pts[hi] = pts[hi], pts[store]
		switch {
		case store == k:
			return
		case store < k:
			lo = store + 1
		default:
			hi = store - 1
		}
	}
}

func insertionSort(pts []Point, axis int) {
	for i := 1; i < len(pts); i++ {
		for j := i; j > 0 && less(pts[j], pts[j-1], axis); j-- {
			pts[j], pts[j-1] = pts[j-1], pts[j]
		}
	}
}

func medianOfThree(pts []Point, a, b, c, axis int) int {
	if less(pts[a], pts[b], axis) {
		a, b = b, a
	}
	if less(pts[b], pts[c], axis) {
		b = c
	}
	if less(pts[a], pts[b], axis) {
		b = a
	}
	return b
}

func less(a, b Point, axis int) bool {
	av, bv := coord(a, axis), coord(b, axis)
	if av != bv {
		return av < bv
	}
	ao, bo := coord(a, 1-axis), coord(b, 1-axis)
	if ao != bo {
		return ao < bo
	}
	return a.Key < b.Key
}

func coord(p Point, axis int) float64 {
	if axis == 0 {
		return p.X
	}
	return p.Y
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// Result is a nearest-neighbour answer.
type Result struct {
	Key    int64
	X, Y   float64
	DistSq float64
	Found  bool
}

// accept folds one point at squared distance d into best under the
// search's rule: strictly closer, or an equidistant tie with a smaller
// key, or the first point found within the radius bound (inclusive).
func accept(best *Result, p Point, d float64) {
	if d < best.DistSq ||
		(d == best.DistSq && best.Found && p.Key < best.Key) ||
		(d <= best.DistSq && !best.Found) {
		best.Key, best.X, best.Y, best.DistSq, best.Found = p.Key, p.X, p.Y, d, true
	}
}

// Nearest returns the point closest (Euclidean) to (x, y), excluding any
// point whose key equals exclude (pass a negative key to exclude nothing),
// and ignoring points farther than maxDist (pass +Inf for unbounded).
// Ties break toward the smaller key so both evaluators agree.
func (t *Tree) Nearest(x, y float64, exclude int64, maxDist float64) Result {
	best := Result{DistSq: maxDist * maxDist}
	if math.IsInf(maxDist, 1) {
		best.DistSq = math.Inf(1)
	}
	if len(t.pts) > 0 {
		t.search(0, len(t.pts), 0, x, y, exclude, &best)
	}
	return best
}

// NearestOnce returns what Build(pts).Nearest(x, y, exclude, +Inf)
// returns, without building the tree: one pass under the search's own
// acceptance rule — least squared distance, ties toward the smaller key,
// a point at unbounded distance still found when nothing is nearer. The
// tree's answer is that minimum whatever its shape, because the search
// only prunes a region (half-plane or bounding box) farther than the best
// so far and visits it on a tie. The exception is a coordinate difference
// that is NaN (a NaN coordinate, or the probe and a point at the same
// infinity): it compares false with everything, so what the tree prunes
// then depends on its layout — such a point set is answered by building
// the tree, at the full build's cost on every call: correct for hostile
// rows, not fast.
func NearestOnce(pts []Point, x, y float64, exclude int64) Result {
	best := Result{DistSq: math.Inf(1)}
	for _, p := range pts {
		dx, dy := p.X-x, p.Y-y
		if dx != dx || dy != dy {
			return Build(pts).Nearest(x, y, exclude, math.Inf(1))
		}
		if p.Key != exclude {
			accept(&best, p, dx*dx+dy*dy)
		}
	}
	return best
}

// search visits the node over pts[lo:hi] (nonempty), near child first.
//
// A subtree is skipped when its box is strictly farther than the best so
// far: every point in it lies at least that far (monotone rounding keeps
// the box's bound below each member's computed distance, and a point at a
// NaN distance is never accepted), and the best distance never grows, so
// no point skipped could have been accepted then or later — the search
// ends in exactly the state it would have without the box test, ties
// included. The splitting-plane test stays as it was, so where a NaN
// difference prunes nothing changes either.
func (t *Tree) search(lo, hi, axis int, x, y float64, exclude int64, best *Result) {
	mid := lo + (hi-lo)/2
	if t.boxes[mid].distSq(x, y) > best.DistSq {
		return
	}
	p := t.pts[mid]
	if p.Key != exclude {
		dx, dy := p.X-x, p.Y-y
		accept(best, p, dx*dx+dy*dy)
	}
	var diff float64
	if axis == 0 {
		diff = x - p.X
	} else {
		diff = y - p.Y
	}
	nearLo, nearHi, farLo, farHi := lo, mid, mid+1, hi
	if diff > 0 {
		nearLo, nearHi, farLo, farHi = farLo, farHi, nearLo, nearHi
	}
	if nearLo < nearHi {
		t.search(nearLo, nearHi, 1-axis, x, y, exclude, best)
	}
	// Visit the far side only if the splitting plane is within the best
	// radius; use <= so equidistant ties are found for determinism.
	if farLo < farHi && diff*diff <= best.DistSq {
		t.search(farLo, farHi, 1-axis, x, y, exclude, best)
	}
}

// All returns the indexed points sorted by key, primarily for tests.
func (t *Tree) All() []Point {
	cp := slices.Clone(t.pts)
	slices.SortFunc(cp, func(a, b Point) int { return cmp.Compare(a.Key, b.Key) })
	return cp
}
