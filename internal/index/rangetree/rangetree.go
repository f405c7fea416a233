// Package rangetree implements the layered range tree of paper Section
// 5.3.1: the index structure for *divisible* aggregates (count, sum, the
// statistical moments, centroid components) over orthogonal range queries.
//
// The structure is a balanced binary tree over the x-sorted points. Every
// node covers a contiguous x-interval and stores its points sorted by y,
// but — this is the paper's Figure 8 — instead of placing the points at the
// leaves of the y-structure, each y-position stores the *prefix aggregate*
// of all points with smaller-or-equal y. Because divisible aggregates
// satisfy agg(A\B) = f(agg(A), agg(B)) for B ⊆ A, the aggregate of any
// y-interval is recovered from two prefix lookups.
//
// A query decomposes the x-range into O(log n) canonical nodes. With plain
// binary search at each node a probe costs O(log² n); with fractional
// cascading (bridge pointers from each node's y-list into its children's,
// [Chazelle & Guibas 1986]) the y-position is located once at the root and
// then followed down in O(1) per node, giving O(log n) probes and
// O(n log n) probes-for-all-units per tick as the paper claims. Both query
// paths are exposed so the benefit is benchmarkable (ablation A1/A5).
//
// The tree's shape is fixed by a build: positions change only through a
// rebuild, which the paper argues is cheaper than dynamic maintenance for
// rapidly changing attributes ("we discard the index and build a new one
// from scratch"). What makes that affordable every tick is the layout —
// no node objects, one slab per component with the nodes of a level side
// by side — and Rebuild, which overwrites a tree's slabs in place, so a
// steady population rebuilds without allocating. From scratch is in the
// answers, not in the work: a rebuild re-ranks its points starting from
// the x-rank order the tree held (sorted.Resort), so units that moved a
// square since the last tick re-rank in O(n), not O(n log n), into the
// ranks a fresh build gives; and it builds two guides (sorted.Guide)
// from which a probe takes its four bounds in O(1) where the points are
// spread, instead of four binary searches over all of them. Payloads alone can be
// replaced in place by Repatch. And a build is not the only way to the
// tree's answers: O(n log n) is repaid by the n probes of a tick, not by
// the one or two a spectator's read view sees, so AggregateOnce evaluates
// a single probe straight off the points — same canonical nodes, same
// prefix association, the same bits as the built tree would return.
//
// Layering by low-volatility categorical attributes (player, unit type)
// is done above this package by building one tree per partition, exactly
// like the paper's "6 range trees — one for each player/unit type
// combination".
//
// Point is an alias of geom.Point, not a type of its own: a caller that
// already holds its points' positions as a []geom.Point — an engine read
// view keeps one — hands that slice to AggregateOnce or Rebuild as it
// is. Neither writes the points it is given.
package rangetree

import (
	"math/bits"
	"slices"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/sorted"
)

// Point is an indexed location: geom.Point itself, so a column of
// positions kept elsewhere (a read view's) is a point set as it stands,
// with no copy. The payload values live in a separate flattened slice
// passed to Build.
type Point = geom.Point

// Tree is a layered range tree in a level-major flat layout. The node at
// level d (root = 0) that is the k-th of its level and covers the x-ranks
// [lo, hi) owns slots off .. off+(hi−lo) of every slab, where
// off = d·n + 2^d − 1 + lo + k: each level is the n points plus one spare
// slot per node, because bridges and prefix aggregates have one more entry
// than the node has points. A node splits at (lo+hi)/2 into the nodes
// 2k and 2k+1 of the next level; a node of one point is a leaf.
//
// A Tree is safe for concurrent reads. Rebuild and Repatch overwrite it
// and need exclusive access.
type Tree struct {
	n, width int
	xs       []float64 // x-rank → x
	order    []int32   // x-rank → point index
	ys       []float64 // per node: y values of covered points, ascending
	ids      []int32   // per node: original point index per y-position
	bl, br   []int32   // per node: fractional-cascading bridges into the children (size+1 entries)
	prefix   []float64 // per node: (size+1)·width prefix aggregates
	// gx and gy locate a probe's bounds in xs and in the root's y-list
	// ys[:n] (Guide.Search's plain binary search when a coordinate is NaN).
	gx, gy sorted.Guide
}

// node names one tree node: its level, its ordinal within the level and
// the x-rank interval it covers.
type node struct{ d, k, lo, hi int }

func (nd node) size() int { return nd.hi - nd.lo }

func (nd node) children() (node, node) {
	mid := (nd.lo + nd.hi) / 2
	return node{nd.d + 1, 2 * nd.k, nd.lo, mid}, node{nd.d + 1, 2*nd.k + 1, mid, nd.hi}
}

// off is nd's first slot in every slab.
func (t *Tree) off(nd node) int { return nd.d*t.n + 1<<nd.d - 1 + nd.lo + nd.k }

func (t *Tree) root() node { return node{hi: t.n} }

// Build constructs a new tree; see Rebuild. Kept exported for the A5
// benchmark, BenchmarkIndexBuild8000, and other packages' tests.
func Build(pts []Point, width int, vals []float64) *Tree {
	t := &Tree{}
	t.Rebuild(pts, width, vals)
	return t
}

// Rebuild makes t the tree over pts with a payload of `width` float64
// values per point, flattened in vals (len(vals) == len(pts)*width, point
// i owning vals[i*width : (i+1)*width]), discarding whatever t held.
// Payloads are combined by addition; a payload column of all 1s yields
// COUNT, a column of e.posx yields SUM(posx), and so on.
//
// Rebuild is O(n log n) and reuses t's slabs whenever their capacity
// suffices, so rebuilding a tree over a population of steady size
// allocates nothing. Neither pts nor vals is retained. The result is a
// pure function of the arguments: a rebuilt tree answers every query
// bit-identically to a fresh Build, whatever t held before.
//
// Over as many points as t held, none of them NaN, the x-rank sort starts
// from t's previous x-rank order (sorted.Resort): points that moved a
// little since the last build cost O(n) to re-rank instead of O(n log n).
// The order is total on such points, so the ranks are a fresh build's.
// Rebuild returns the re-sort's work, zero when it sorted afresh.
func (t *Tree) Rebuild(pts []Point, width int, vals []float64) sorted.Work {
	if width < 0 {
		panic("rangetree: negative width")
	}
	if len(vals) != len(pts)*width {
		panic("rangetree: vals length does not match points*width")
	}
	n, warm := len(pts), len(pts) == t.n
	t.n, t.width = n, width
	if n == 0 {
		return sorted.Work{}
	}
	levels := bits.Len(uint(n-1)) + 1
	slots := levels*n + 1<<levels - 1
	t.xs, t.order = resize(t.xs, n), resize(t.order, n)
	t.ys, t.ids = resize(t.ys, slots), resize(t.ids, slots)
	t.bl, t.br = resize(t.bl, slots), resize(t.br, slots)
	t.prefix = resize(t.prefix, slots*width)

	nan := false
	for _, p := range pts {
		nan = nan || p.X != p.X || p.Y != p.Y
	}
	var work sorted.Work
	if warm && !nan {
		work = sorted.Resort(t.order, xRankOrder(pts))
	} else {
		for i := range t.order {
			t.order[i] = int32(i)
		}
		slices.SortFunc(t.order, xRankOrder(pts))
	}
	for r, id := range t.order {
		t.xs[r] = pts[id].X
	}
	t.build(pts, vals, t.root())
	if nan {
		t.gx.Search(t.xs)
		t.gy.Search(t.ys[:n])
	} else {
		t.gx.Reset(t.xs)
		t.gy.Reset(t.ys[:n])
	}
	return work
}

// resize returns s with length n, reallocating (with headroom, so a
// slowly growing population does not reallocate every rebuild) only when
// the capacity is short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
}

// xRankOrder compares point indexes in the tree's x-rank order: by x,
// ties by y then index, so the order is total on points without a NaN.
// AggregateOnce ranks its slab by the same function.
func xRankOrder(pts []Point) func(a, b int32) int {
	return func(a, b int32) int {
		pa, pb := pts[a], pts[b]
		if c := cmpFloat(pa.X, pb.X); c != 0 {
			return c
		}
		if c := cmpFloat(pa.Y, pb.Y); c != 0 {
			return c
		}
		return int(a - b)
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// build fills the subtree under nd bottom-up: a node's y-list is the
// stable merge of its children's (mergesort over y, ties by point index),
// its bridges come from a monotone two-pointer walk over the same lists,
// and its prefix aggregates are summed left to right over the merged
// order.
func (t *Tree) build(pts []Point, vals []float64, nd node) {
	off, size := t.off(nd), nd.size()
	if size == 1 {
		id := t.order[nd.lo]
		t.ys[off], t.ids[off] = pts[id].Y, id
		t.fillPrefix(vals, off, 1)
		return
	}
	l, r := nd.children()
	t.build(pts, vals, l)
	t.build(pts, vals, r)

	nl, nr := l.size(), r.size()
	lo, ro := t.off(l), t.off(r)
	lys, lids := t.ys[lo:lo+nl], t.ids[lo:lo+nl]
	rys, rids := t.ys[ro:ro+nr], t.ids[ro:ro+nr]
	ys, ids := t.ys[off:off+size], t.ids[off:off+size]
	// bl[p] = lowerBound(lys, ys[p]), likewise br; the spare last entry
	// holds the child's size.
	bl, br := t.bl[off:off+size+1], t.br[off:off+size+1]
	i, j, li, ri := 0, 0, 0, 0
	for p := range ys {
		if j >= nr || (i < nl && (lys[i] < rys[j] || (lys[i] == rys[j] && lids[i] <= rids[j]))) {
			ys[p], ids[p] = lys[i], lids[i]
			i++
		} else {
			ys[p], ids[p] = rys[j], rids[j]
			j++
		}
		y := ys[p]
		for li < nl && lys[li] < y {
			li++
		}
		for ri < nr && rys[ri] < y {
			ri++
		}
		bl[p], br[p] = int32(li), int32(ri)
	}
	bl[size], br[size] = int32(nl), int32(nr)
	t.fillPrefix(vals, off, size)
}

// fillPrefix recomputes the prefix aggregates of the node at off from the
// payloads, left to right over its y-order — the one association every
// build and repatch uses, which is what makes them bit-identical.
func (t *Tree) fillPrefix(vals []float64, off, size int) {
	w := t.width
	prefix := t.prefix[off*w : (off+size+1)*w]
	clear(prefix[:w])
	for p, id := range t.ids[off : off+size] {
		base, vbase := (p+1)*w, int(id)*w
		for c := 0; c < w; c++ {
			prefix[base+c] = prefix[base-w+c] + vals[vbase+c]
		}
	}
}

// Repatch replaces every point's payload and recomputes all prefix
// aggregates in place: O(n log n) additions, no sorting, no allocation.
// vals is indexed exactly like Rebuild's. The resulting tree answers every
// query bit-identically to a Build over the same points with the new
// payloads.
func (t *Tree) Repatch(vals []float64) {
	if len(vals) != t.n*t.width {
		panic("rangetree: Repatch vals length mismatch")
	}
	if t.n > 0 {
		t.repatch(vals, t.root())
	}
}

func (t *Tree) repatch(vals []float64, nd node) {
	t.fillPrefix(vals, t.off(nd), nd.size())
	if nd.size() > 1 {
		l, r := nd.children()
		t.repatch(vals, l)
		t.repatch(vals, r)
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.n }

// probe is one query's x-rank interval and, for the visiting queries,
// where its results go.
type probe struct {
	xlo, xhi int
	out      []float64
	fn       func(i int)
}

// locate resolves r to the x-rank interval it spans and its y-position
// interval in the root's list, either empty when nothing can match,
// through the guides; steps counts the comparisons their searches made.
func (t *Tree) locate(r geom.Rect) (q probe, plo, phi, steps int) {
	if t.n == 0 || r.Empty() {
		return q, 0, 0, 0
	}
	q.xlo, q.xhi, steps = t.gx.Span(r.MinX, r.MaxX)
	if q.xlo >= q.xhi {
		return q, 0, 0, steps
	}
	plo, phi, ysteps := t.gy.Span(r.MinY, r.MaxY)
	return q, plo, phi, steps + ysteps
}

// Aggregate adds the payload sum over all points inside r (boundary
// inclusive) into out, which must have length Width(). This is the
// fractional-cascading fast path: O(log n), and O(1) to find the bounds
// of points spread as a battle's are. It returns the comparisons the
// bound searches made.
func (t *Tree) Aggregate(r geom.Rect, out []float64) (steps int) {
	if len(out) != t.width {
		panic("rangetree: out width mismatch")
	}
	q, plo, phi, steps := t.locate(r)
	q.out = out
	t.aggCascade(&q, t.root(), plo, phi)
	return steps
}

func (t *Tree) aggCascade(q *probe, nd node, plo, phi int) {
	if plo >= phi || q.xlo >= nd.hi || q.xhi <= nd.lo {
		return
	}
	off := t.off(nd)
	if q.xlo <= nd.lo && nd.hi <= q.xhi {
		w := t.width
		hiBase, loBase := (off+phi)*w, (off+plo)*w
		for c := range q.out {
			q.out[c] += t.prefix[hiBase+c] - t.prefix[loBase+c]
		}
		return
	}
	if nd.size() == 1 {
		return
	}
	l, r := nd.children()
	t.aggCascade(q, l, int(t.bl[off+plo]), int(t.bl[off+phi]))
	t.aggCascade(q, r, int(t.br[off+plo]), int(t.br[off+phi]))
}

// AggregateNoCascade is Aggregate without fractional cascading or the
// guides: each canonical node performs its own O(log n) binary searches,
// for O(log² n) per probe. Kept as the ablation baseline that
// BenchmarkAggIndexAblationNoCascade (A1) runs.
func (t *Tree) AggregateNoCascade(r geom.Rect, out []float64) {
	if len(out) != t.width {
		panic("rangetree: out width mismatch")
	}
	var q probe
	if t.n > 0 && !r.Empty() {
		q.xlo, q.xhi = sorted.LowerBound(t.xs, r.MinX), sorted.UpperBound(t.xs, r.MaxX)
	}
	q.out = out
	t.aggSearch(&q, t.root(), r.MinY, r.MaxY)
}

func (t *Tree) aggSearch(q *probe, nd node, ymin, ymax float64) {
	if q.xlo >= nd.hi || q.xhi <= nd.lo {
		return
	}
	if q.xlo <= nd.lo && nd.hi <= q.xhi {
		off := t.off(nd)
		ys := t.ys[off : off+nd.size()]
		plo, phi := sorted.LowerBound(ys, ymin), sorted.UpperBound(ys, ymax)
		if plo >= phi {
			return
		}
		w := t.width
		hiBase, loBase := (off+phi)*w, (off+plo)*w
		for c := range q.out {
			q.out[c] += t.prefix[hiBase+c] - t.prefix[loBase+c]
		}
		return
	}
	if nd.size() == 1 {
		return
	}
	l, r := nd.children()
	t.aggSearch(q, l, ymin, ymax)
	t.aggSearch(q, r, ymin, ymax)
}

// Report calls fn with the original index of every point inside r, in
// canonical-node order. This is the classic O(log n + k) layered range
// tree enumeration, used when a plan genuinely needs the qualifying rows
// rather than an aggregate over them.
func (t *Tree) Report(r geom.Rect, fn func(i int)) {
	q, plo, phi, _ := t.locate(r)
	q.fn = fn
	t.report(&q, t.root(), plo, phi)
}

// report visits (when q.fn is set) and counts the points of the canonical
// nodes under nd.
func (t *Tree) report(q *probe, nd node, plo, phi int) int {
	if plo >= phi || q.xlo >= nd.hi || q.xhi <= nd.lo {
		return 0
	}
	off := t.off(nd)
	if q.xlo <= nd.lo && nd.hi <= q.xhi {
		if q.fn != nil {
			for _, id := range t.ids[off+plo : off+phi] {
				q.fn(int(id))
			}
		}
		return phi - plo
	}
	if nd.size() == 1 {
		return 0
	}
	l, r := nd.children()
	return t.report(q, l, int(t.bl[off+plo]), int(t.bl[off+phi])) +
		t.report(q, r, int(t.br[off+plo]), int(t.br[off+phi]))
}

// AggregateOnce adds into out exactly what Build(pts, len(out), vals)
// .Aggregate(r, out) adds — the same floats, in the same order, by the
// same association — without building the tree: O(n + k log k) for k
// points inside r's x-range, nothing retained. It is the evaluation for a
// point set that will be probed too few times to repay an O(n log n)
// build. The payloads are not passed flattened: payload(i, dst) writes
// point i's len(out) values into dst, and is called only for the points
// the probe actually sums — typically a small fraction — at most once per
// point.
//
// The identity rests on three facts about the tree. A probe's x-rank
// interval [xlo, xhi) is a count: the points left of r, and the points
// not right of it, under the comparisons lowerBound and upperBound make.
// The canonical nodes are arithmetic on that interval and n alone (a node
// [lo, hi) splits at (lo+hi)/2), and which point holds which rank inside
// the interval follows from sorting just those points by the tree's
// (x, y, index) order. And a node's contribution is prefix[phi] −
// prefix[plo] over its points in (y, index) order, summed left to right
// from zero — reproduced here per canonical node; the points above r's
// y-range sit at positions ≥ phi, so they are never summed and need no
// place in the order. (A sum that is NaN is NaN on both paths; the sign
// and payload bits of a NaN are the hardware's choice of operand and no
// part of the identity.)
//
// NaN coordinates have no place in the order the tree sorts by — its
// shape then depends on the sort's internals — so a point set holding one
// is answered by building the tree after all, at the full O(n log n) and
// its allocations on every call: correct for hostile rows, not fast.
// Finite positions do not retire this fallback: a range axis is whatever
// column a ≥/≤ bound names (exec's groupAxes), and a state column the
// script computes can hold a NaN that persists — game.ApplyEffects
// writes cooldown from the wUsed effect.
//
// s is working memory kept between calls (nil for none); with it a call
// allocates nothing once the slices have grown to the point set's size.
func AggregateOnce(s *Scratch, pts []Point, payload func(i int, dst []float64), r geom.Rect, out []float64) {
	if len(pts) == 0 || r.Empty() {
		return
	}
	if s == nil {
		s = new(Scratch)
	}
	q := once{Scratch: s, pts: pts, payload: payload, r: r, out: out}
	s.slab = s.slab[:0]
	for i, p := range pts {
		if p.X != p.X || p.Y != p.Y {
			w := len(out)
			vals := make([]float64, len(pts)*w)
			for j := range pts {
				payload(j, vals[j*w:(j+1)*w])
			}
			Build(pts, w, vals).Aggregate(r, out)
			return
		}
		// lowerBound(xs, MinX) and upperBound(xs, MaxX), as counts.
		switch {
		case !(p.X >= r.MinX):
			q.xlo++
			q.xhi++
		case !(p.X > r.MaxX):
			q.xhi++
			s.slab = append(s.slab, int32(i))
		}
	}
	if q.xlo >= q.xhi {
		return
	}
	slices.SortFunc(s.slab, xRankOrder(pts))
	q.walk(0, len(pts))
}

// Scratch is AggregateOnce's working memory. The zero value is ready to
// use; one Scratch serves one call at a time.
type Scratch struct {
	slab    []int32   // point index at x-rank xlo+i
	members []int32   // the points of one canonical node it sums
	vals    []float64 // their payloads, flattened
}

// once is one AggregateOnce evaluation: the probe and the x-rank interval
// it spans; Scratch.slab holds the point indexes at those ranks, in rank
// order.
type once struct {
	*Scratch
	pts      []Point
	payload  func(i int, dst []float64)
	r        geom.Rect
	out      []float64
	xlo, xhi int
}

// walk visits the canonical nodes under the node of x-ranks [lo, hi) in
// aggCascade's order.
func (q *once) walk(lo, hi int) {
	if q.xlo >= hi || q.xhi <= lo {
		return
	}
	if q.xlo <= lo && hi <= q.xhi {
		q.node(q.slab[lo-q.xlo : hi-q.xlo])
		return
	}
	if hi-lo == 1 {
		return
	}
	mid := (lo + hi) / 2
	q.walk(lo, mid)
	q.walk(mid, hi)
}

// node adds one canonical node's contribution: over its points at
// y-positions [0, phi) of the node's (y, index) order, the prefix sums
// from zero that fillPrefix computes, taken at phi and at plo.
func (q *once) node(ids []int32) {
	members, plo := q.members[:0], 0
	for _, id := range ids {
		if y := q.pts[id].Y; !(y > q.r.MaxY) {
			members = append(members, id)
			if !(y >= q.r.MinY) {
				plo++
			}
		}
	}
	q.members = members
	if plo >= len(members) {
		return
	}
	slices.SortFunc(members, func(a, b int32) int {
		if c := cmpFloat(q.pts[a].Y, q.pts[b].Y); c != 0 {
			return c
		}
		return int(a - b)
	})
	w := len(q.out)
	q.vals = resize(q.vals, len(members)*w)
	for p, id := range members {
		q.payload(int(id), q.vals[p*w:(p+1)*w])
	}
	for c := range q.out {
		var prefix, atLo float64
		for p := range members {
			if p == plo {
				atLo = prefix
			}
			prefix = prefix + q.vals[p*w+c]
		}
		q.out[c] += prefix - atLo
	}
}
