// Package kdtree implements the 2-d tree used for spatial aggregates such
// as nearest-neighbour queries (paper Section 5.3.2, citing Bentley's
// semidynamic k-d trees).
//
// The paper places kD-trees at the lowest level of a layered structure:
// categorical selections (player, unit type, "whose armor we can
// penetrate") are handled by building one tree per partition above this
// package, then each probe is answered by the partition's tree. Queries
// support an exclusion key (a unit is never its own nearest enemy) and an
// optional maximum radius (visibility range).
package kdtree

import (
	"math"
	"sort"
)

// Point is an indexed location with its unit key.
type Point struct {
	X, Y float64
	Key  int64
}

// Tree is a 2-d tree, rebuilt per tick like the other indices and safe
// for concurrent reads. In Bentley's semidynamic spirit it also absorbs
// updates between rebuilds: Remove tombstones a point by key, Insert adds
// the point to a young buffer scanned linearly by queries, and Patch
// moves a point (remove + insert). Because nearest-neighbour answers are
// a pure function of the live point set (ties break by key), query
// results after any update sequence are identical to a fresh Build over
// the same live points. The mutating methods are not concurrency-safe.
type Tree struct {
	pts []Point // points in tree layout order
	// The tree is stored implicitly: node i covers pts[lo:hi] with the
	// median at mid; children are the sub-slices. Recursion boundaries are
	// recomputed during search, so no explicit node structs are needed.

	// Dynamic state: tombstoned built keys, young points (with their own
	// tombstones), and a lazily built key → liveness index.
	deadBuilt map[int64]bool
	young     []Point
	youngDead []bool
	builtKeys map[int64]bool // lazily built on first mutation
}

// Build constructs a balanced 2-d tree in O(n log n). The input slice is
// not modified.
func Build(pts []Point) *Tree {
	cp := append([]Point(nil), pts...)
	build(cp, 0)
	return &Tree{pts: cp}
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

// Nearest returns the point closest (Euclidean) to (x, y), excluding any
// point whose key equals exclude (pass a negative key to exclude nothing),
// and ignoring points farther than maxDist (pass +Inf for unbounded).
// Ties break toward the smaller key so both evaluators agree.
func (t *Tree) Nearest(x, y float64, exclude int64, maxDist float64) Result {
	best := Result{DistSq: maxDist * maxDist}
	if math.IsInf(maxDist, 1) {
		best.DistSq = math.Inf(1)
	}
	t.search(t.pts, 0, x, y, exclude, &best)
	for j, p := range t.young {
		if t.youngDead[j] || p.Key == exclude {
			continue
		}
		dx, dy := p.X-x, p.Y-y
		d := dx*dx + dy*dy
		if d < best.DistSq ||
			(d == best.DistSq && best.Found && p.Key < best.Key) ||
			(d <= best.DistSq && !best.Found) {
			best.Key, best.X, best.Y, best.DistSq, best.Found = p.Key, p.X, p.Y, d, true
		}
	}
	return best
}

// NearestOnce returns what Build(pts).Nearest(x, y, exclude, +Inf)
// returns, without building the tree: one pass under the search's own
// acceptance rule — least squared distance, ties toward the smaller key,
// a point at unbounded distance still found when nothing is nearer. The
// tree's answer is that minimum whatever its shape, because the search
// only prunes a half-plane farther than the best so far and visits it on
// a tie. The exception is a coordinate difference that is NaN (a NaN
// coordinate, or the probe and a point at the same infinity): it
// compares false with everything, so what the tree prunes then depends
// on its layout — such a point set is answered by building the tree, at
// the full build's cost on every call: correct for hostile rows, not fast.
func NearestOnce(pts []Point, x, y float64, exclude int64) Result {
	best := Result{DistSq: math.Inf(1)}
	for _, p := range pts {
		dx, dy := p.X-x, p.Y-y
		if dx != dx || dy != dy {
			return Build(pts).Nearest(x, y, exclude, math.Inf(1))
		}
		if p.Key == exclude {
			continue
		}
		d := dx*dx + dy*dy
		if d < best.DistSq ||
			(d == best.DistSq && best.Found && p.Key < best.Key) ||
			(d <= best.DistSq && !best.Found) {
			best.Key, best.X, best.Y, best.DistSq, best.Found = p.Key, p.X, p.Y, d, true
		}
	}
	return best
}

// isDead reports whether a built point's key is tombstoned.
func (t *Tree) isDead(key int64) bool {
	return t.deadBuilt != nil && t.deadBuilt[key]
}

func (t *Tree) search(pts []Point, axis int, x, y float64, exclude int64, best *Result) {
	if len(pts) == 0 {
		return
	}
	mid := len(pts) / 2
	p := pts[mid]
	if p.Key != exclude && !t.isDead(p.Key) {
		dx, dy := p.X-x, p.Y-y
		d := dx*dx + dy*dy
		// Accept if strictly closer, or the first point found within the
		// radius bound (inclusive), or an equidistant tie with smaller key.
		if d < best.DistSq ||
			(d == best.DistSq && best.Found && p.Key < best.Key) ||
			(d <= best.DistSq && !best.Found) {
			best.Key, best.X, best.Y, best.DistSq, best.Found = p.Key, p.X, p.Y, d, true
		}
	}
	var diff float64
	if axis == 0 {
		diff = x - p.X
	} else {
		diff = y - p.Y
	}
	near, far := pts[:mid], pts[mid+1:]
	if diff > 0 {
		near, far = far, near
	}
	t.search(near, 1-axis, x, y, exclude, best)
	// Visit the far side only if the splitting plane is within the best
	// radius; use <= so equidistant ties are found for determinism.
	if diff*diff <= best.DistSq {
		t.search(far, 1-axis, x, y, exclude, best)
	}
}

// KNearest returns up to k points nearest to (x, y) (excluding the given
// key), ordered by ascending distance with key tiebreak. It is used by
// scripts that examine a small neighbourhood ("the three nearest healers").
func (t *Tree) KNearest(x, y float64, exclude int64, k int) []Result {
	if k <= 0 {
		return nil
	}
	h := &resultHeap{}
	t.kSearch(t.pts, 0, x, y, exclude, k, h)
	for j, p := range t.young {
		if t.youngDead[j] || p.Key == exclude {
			continue
		}
		dx, dy := p.X-x, p.Y-y
		h.push(Result{Key: p.Key, X: p.X, Y: p.Y, DistSq: dx*dx + dy*dy, Found: true}, k)
	}
	out := make([]Result, len(*h))
	for i := len(*h) - 1; i >= 0; i-- {
		out[i] = h.pop()
	}
	return out
}

func (t *Tree) kSearch(pts []Point, axis int, x, y float64, exclude int64, k int, h *resultHeap) {
	if len(pts) == 0 {
		return
	}
	mid := len(pts) / 2
	p := pts[mid]
	if p.Key != exclude && !t.isDead(p.Key) {
		dx, dy := p.X-x, p.Y-y
		d := dx*dx + dy*dy
		h.push(Result{Key: p.Key, X: p.X, Y: p.Y, DistSq: d, Found: true}, k)
	}
	var diff float64
	if axis == 0 {
		diff = x - p.X
	} else {
		diff = y - p.Y
	}
	near, far := pts[:mid], pts[mid+1:]
	if diff > 0 {
		near, far = far, near
	}
	t.kSearch(near, 1-axis, x, y, exclude, k, h)
	if len(*h) < k || diff*diff <= (*h)[0].DistSq {
		t.kSearch(far, 1-axis, x, y, exclude, k, h)
	}
}

// resultHeap is a max-heap by (DistSq, Key) holding the current k best.
type resultHeap []Result

func worse(a, b Result) bool {
	if a.DistSq != b.DistSq {
		return a.DistSq > b.DistSq
	}
	return a.Key > b.Key
}

func (h *resultHeap) push(r Result, k int) {
	if len(*h) == k {
		if !worse((*h)[0], r) {
			return
		}
		(*h)[0] = r
		h.siftDown(0)
		return
	}
	*h = append(*h, r)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !worse((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *resultHeap) pop() Result {
	top := (*h)[0]
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

func (h *resultHeap) siftDown(i int) {
	n := len(*h)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && worse((*h)[l], (*h)[largest]) {
			largest = l
		}
		if r < n && worse((*h)[r], (*h)[largest]) {
			largest = r
		}
		if largest == i {
			return
		}
		(*h)[i], (*h)[largest] = (*h)[largest], (*h)[i]
		i = largest
	}
}

// All returns the live indexed points sorted by key, primarily for tests.
func (t *Tree) All() []Point {
	cp := make([]Point, 0, len(t.pts)+len(t.young))
	for _, p := range t.pts {
		if !t.isDead(p.Key) {
			cp = append(cp, p)
		}
	}
	for j, p := range t.young {
		if !t.youngDead[j] {
			cp = append(cp, p)
		}
	}
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	return cp
}

// ---------------------------------------------------------------------------
// Incremental maintenance (Bentley's semidynamic scheme)

// ensureKeys builds the built-point key set lazily on first mutation.
func (t *Tree) ensureKeys() {
	if t.builtKeys != nil {
		return
	}
	t.builtKeys = make(map[int64]bool, len(t.pts))
	for _, p := range t.pts {
		t.builtKeys[p.Key] = true
	}
}

// live reports whether key currently names a live point.
func (t *Tree) live(key int64) bool {
	t.ensureKeys()
	if t.builtKeys[key] && !t.isDead(key) {
		return true
	}
	for j, p := range t.young {
		if p.Key == key && !t.youngDead[j] {
			return true
		}
	}
	return false
}

// Insert adds a point to the young buffer, scanned linearly by queries
// (rebuild once the buffer grows past a few percent of the tree). It
// panics if the key is already live — keys are unit identities.
func (t *Tree) Insert(p Point) {
	if t.live(p.Key) {
		panic("kdtree: Insert of a live key")
	}
	t.young = append(t.young, p)
	t.youngDead = append(t.youngDead, false)
}

// Remove deletes the point with the given key (tombstoning it, per the
// semidynamic scheme). It returns false if no live point has that key.
func (t *Tree) Remove(key int64) bool {
	t.ensureKeys()
	if t.builtKeys[key] && !t.isDead(key) {
		if t.deadBuilt == nil {
			t.deadBuilt = make(map[int64]bool)
		}
		t.deadBuilt[key] = true
		return true
	}
	for j, p := range t.young {
		if p.Key == key && !t.youngDead[j] {
			t.youngDead[j] = true
			return true
		}
	}
	return false
}

// Patch moves the point with the given key to a new position (remove +
// young insert). It returns false if no live point has that key.
func (t *Tree) Patch(key int64, x, y float64) bool {
	if !t.Remove(key) {
		return false
	}
	t.young = append(t.young, Point{X: x, Y: y, Key: key})
	t.youngDead = append(t.youngDead, false)
	return true
}

// Young returns the young-buffer size (including tombstoned entries), a
// rebuild heuristic for callers.
func (t *Tree) Young() int { return len(t.young) }
