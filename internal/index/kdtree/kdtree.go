// Package kdtree implements the 2-d tree used for spatial aggregates such
// as nearest-neighbour queries (paper Section 5.3.2).
//
// The paper places kD-trees at the lowest level of a layered structure:
// categorical selections (player, unit type, "whose armor we can
// penetrate") are handled by building one tree per partition above this
// package, then each probe is answered by the partition's tree. Queries
// support an exclusion key (a unit is never its own nearest enemy).
//
// The tree is bucketed: points live only in leaves of at most leafSize,
// stored as contiguous coordinate and key slabs, and inner nodes hold only
// their split value. A search descends iteratively, bounding each subtree
// it defers by the probe's per-axis offsets from the splits that separate
// them (Arya and Mount's incremental distance).
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

// Point is an indexed location with its unit key, and Ref, the caller's
// own reference for it (a row index, say): carried to the Result that
// names the point, and no part of any search.
type Point struct {
	X, Y float64
	Key  int64
	Ref  int32
}

// leafSize is the most points a leaf holds. A search scans a leaf whole;
// 8 and 16 measure alike.
const leafSize = 8

// Tree is a bucketed 2-d tree, safe for concurrent reads; Rebuild needs
// exclusive access. The zero value is an empty tree.
//
// The tree is implicit. Every leaf sits at depth d, the least for which
// no leaf holds more than leafSize of the n points: leaf j holds slab
// positions [j·n>>d, (j+1)·n>>d). Inner node i, numbered as a heap
// (children 2i+1 and 2i+2), splits on x at even depths and on y at odd
// ones, and holds only its split value: every point of its left child lies
// at or below it on that axis, every point of its right child at or above.
type Tree struct {
	xs, ys []float64 // point coordinates in leaf order
	keys   []int64   // point keys in leaf order
	refs   []int32   // point references in leaf order
	splits []float64 // by inner node: its split value
	depth  int       // the depth of every leaf
	pts    []Point   // the points as Rebuild partitioned them, kept for reuse
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
	n := len(pts)
	t.depth = 0
	for n > leafSize<<t.depth {
		t.depth++
	}
	inner := 1<<t.depth - 1
	t.splits = slices.Grow(t.splits[:0], inner)[:inner]
	t.pts = append(t.pts[:0], pts...)
	t.split(0, 0)
	t.xs = slices.Grow(t.xs[:0], n)[:n]
	t.ys = slices.Grow(t.ys[:0], n)[:n]
	t.keys = slices.Grow(t.keys[:0], n)[:n]
	t.refs = slices.Grow(t.refs[:0], n)[:n]
	for j, p := range t.pts {
		t.xs[j], t.ys[j], t.keys[j], t.refs[j] = p.X, p.Y, p.Key, p.Ref
	}
}

// split partitions the points of node i, at depth k, around the median
// along its axis (0 = x, 1 = y, alternating by depth), records the median's
// coordinate as the split value, and recurses into the children.
func (t *Tree) split(i, k int) {
	if i >= len(t.splits) {
		return
	}
	n, a := len(t.pts), i-(1<<k-1) // a: the node's place within depth k
	lo, mid, hi := a*n>>k, (2*a+1)*n>>(k+1), (a+1)*n>>k
	nthElement(t.pts[lo:hi], mid-lo, k&1)
	t.splits[i] = coord(t.pts[mid], k&1)
	t.split(2*i+1, k+1)
	t.split(2*i+2, k+1)
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
func (t *Tree) Len() int { return len(t.keys) }

// Result is a nearest-neighbour answer: the point's key, position and
// reference, and its squared distance from the probe.
type Result struct {
	Key    int64
	X, Y   float64
	DistSq float64
	Ref    int32
	Found  bool
}

// accept folds one point at squared distance d into best under the
// search's rule: strictly closer, or an equidistant tie with a smaller
// key, or the first point found at all (even at an infinite distance).
func accept(best *Result, p Point, d float64) {
	if d < best.DistSq ||
		(d == best.DistSq && best.Found && p.Key < best.Key) ||
		(d <= best.DistSq && !best.Found) {
		*best = Result{Key: p.Key, X: p.X, Y: p.Y, DistSq: d, Ref: p.Ref, Found: true}
	}
}

// Nearest returns the point closest (Euclidean) to (x, y), excluding any
// point whose key equals exclude (pass a negative key to exclude nothing).
// Ties break toward the smaller key so both evaluators agree.
//
// The search descends to the probe's leaf, near child first, deferring
// each far child with its offsets: per axis, the probe's distance to the
// nearest split separating it from that child (0 where none does). Under
// monotone rounding ox²+oy² is at most the squared distance to every point
// in the child, and the best distance never grows, so a child is deferred
// only when that bound is <= the best so far and skipped when it is
// strictly greater: no point skipped could have been accepted, equidistant
// ties included, and the answer is the (distance, key) minimum whatever the
// layout. A NaN offset (the probe and a split at the same infinity, or a
// NaN coordinate) bounds nothing and defers nothing.
func (t *Tree) Nearest(x, y float64, exclude int64) Result {
	best := Result{DistSq: math.Inf(1)}
	n := len(t.keys)
	if n == 0 {
		return best
	}
	type deferred struct {
		i, k   int     // the child and its depth
		ox, oy float64 // its offsets
	}
	// At most one child per level below the node whose descent deferred
	// it waits here, and a tree of any int-sized population is less than
	// 64 levels deep.
	var stack [64]deferred
	sp := 0
	i, k, ox, oy := 0, 0, 0.0, 0.0
	for {
		for ; k < t.depth; k++ {
			fx, fy := ox, oy
			var diff float64
			if k&1 == 0 {
				diff = x - t.splits[i]
				fx = diff
			} else {
				diff = y - t.splits[i]
				fy = diff
			}
			near, far := 2*i+1, 2*i+2
			if diff > 0 {
				near, far = far, near
			}
			if fx*fx+fy*fy <= best.DistSq {
				stack[sp] = deferred{far, k + 1, fx, fy}
				sp++
			}
			i = near
		}
		j := i - len(t.splits)
		for p, hi := j*n>>k, (j+1)*n>>k; p < hi; p++ {
			if key := t.keys[p]; key != exclude {
				px, py := t.xs[p], t.ys[p]
				dx, dy := px-x, py-y
				accept(&best, Point{px, py, key, t.refs[p]}, dx*dx+dy*dy)
			}
		}
		for {
			if sp == 0 {
				return best
			}
			sp--
			f := &stack[sp]
			if f.ox*f.ox+f.oy*f.oy <= best.DistSq {
				i, k, ox, oy = f.i, f.k, f.ox, f.oy
				break
			}
		}
	}
}

// RankDepth is how many points a Ranking orders.
const RankDepth = 3

// Ranking is the head of a nearest search's order: Top holds the
// RankDepth nearest points under the search's rule (least squared
// distance, ties toward the smaller key) in that order — Top[0] is the
// winner — with Found false past the last point there is; Rest is the
// least squared distance of every other point (+Inf when there is none).
type Ranking struct {
	Top  [RankDepth]Result
	Rest float64
}

// NewRanking returns the ranking of no point.
func NewRanking() Ranking {
	r := Ranking{Rest: math.Inf(1)}
	for i := range r.Top {
		r.Top[i].DistSq = math.Inf(1)
	}
	return r
}

// beats reports whether a point keyed key at squared distance d wins
// over r under the search's rule (accept's).
func beats(r *Result, key int64, d float64) bool {
	return d < r.DistSq || (d == r.DistSq && r.Found && key < r.Key) || (d <= r.DistSq && !r.Found)
}

// Add folds one point at squared distance d into the ranking: it takes
// its place in Top, pushing the point it displaces from the last place
// down into Rest, or lands in Rest itself.
func (r *Ranking) Add(p Point, d float64) {
	i := 0
	for i < RankDepth && !beats(&r.Top[i], p.Key, d) {
		i++
	}
	if i == RankDepth {
		r.Rest = min(r.Rest, d)
		return
	}
	if last := &r.Top[RankDepth-1]; last.Found {
		r.Rest = min(r.Rest, last.DistSq)
	}
	copy(r.Top[i+1:], r.Top[i:RankDepth-1])
	r.Top[i] = Result{Key: p.Key, X: p.X, Y: p.Y, DistSq: d, Ref: p.Ref, Found: true}
}

// NearestRanked is Nearest that ranks the RankDepth nearest points and
// bounds the rest (Ranking), exclude's point excepted. Top[0] is
// Nearest's answer, bit for bit: the descent is Nearest's with the
// pruning bound raised from the best distance to Rest, which is never
// below it, so it visits whatever Nearest visits and skips only subtrees
// every point of which is farther than Rest. (It is a separate loop so
// Nearest pays nothing for it.)
func (t *Tree) NearestRanked(x, y float64, exclude int64) Ranking {
	r := NewRanking()
	n := len(t.keys)
	if n == 0 {
		return r
	}
	type deferred struct {
		i, k   int
		ox, oy float64
	}
	var stack [64]deferred
	sp := 0
	i, k, ox, oy := 0, 0, 0.0, 0.0
	for {
		for ; k < t.depth; k++ {
			fx, fy := ox, oy
			var diff float64
			if k&1 == 0 {
				diff = x - t.splits[i]
				fx = diff
			} else {
				diff = y - t.splits[i]
				fy = diff
			}
			near, far := 2*i+1, 2*i+2
			if diff > 0 {
				near, far = far, near
			}
			if fx*fx+fy*fy <= r.Rest {
				stack[sp] = deferred{far, k + 1, fx, fy}
				sp++
			}
			i = near
		}
		j := i - len(t.splits)
		for p, hi := j*n>>k, (j+1)*n>>k; p < hi; p++ {
			if key := t.keys[p]; key != exclude {
				px, py := t.xs[p], t.ys[p]
				dx, dy := px-x, py-y
				if d := dx*dx + dy*dy; d > r.Top[RankDepth-1].DistSq {
					r.Rest = min(r.Rest, d) // strictly behind the last place
				} else {
					r.Add(Point{px, py, key, t.refs[p]}, d)
				}
			}
		}
		for {
			if sp == 0 {
				return r
			}
			sp--
			f := &stack[sp]
			if f.ox*f.ox+f.oy*f.oy <= r.Rest {
				i, k, ox, oy = f.i, f.k, f.ox, f.oy
				break
			}
		}
	}
}

// NearestOnce returns what Build(pts).Nearest(x, y, exclude) returns,
// without building the tree: one pass under the search's own acceptance
// rule — least squared distance, ties toward the smaller key, a point at
// unbounded distance still found when nothing is nearer. The tree's answer
// is that minimum whatever its shape, because the search only skips a
// subtree whose offset bound is farther than the best so far and visits it
// on a tie.
//
// The probe and every point must have finite coordinates. A NaN
// coordinate difference compares false with everything, so what the tree
// skips would then depend on its layout. The engine guarantees the
// precondition: kD points are unit positions, finite at every ingress and
// after every move, and an At probe that is not finite is refused.
func NearestOnce(pts []Point, x, y float64, exclude int64) Result {
	best := Result{DistSq: math.Inf(1)}
	for _, p := range pts {
		if p.Key != exclude {
			dx, dy := p.X-x, p.Y-y
			accept(&best, p, dx*dx+dy*dy)
		}
	}
	return best
}

// All returns the indexed points sorted by key, primarily for tests.
func (t *Tree) All() []Point {
	cp := slices.Clone(t.pts)
	slices.SortFunc(cp, func(a, b Point) int { return cmp.Compare(a.Key, b.Key) })
	return cp
}
