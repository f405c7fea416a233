// Package sweepline implements the paper's sweep-line technique for MIN and
// MAX aggregates (Section 5.3.1, Figure 9). MIN/MAX are not divisible, so
// the prefix-aggregate trick of the layered range tree does not apply; but
// when the query range has a constant size along one axis — true in games,
// where all units of a type share the same weapon and visibility range —
// the aggregate for *every* unit can be computed in one sweep:
//
//   - choose the constant-size axis (y here, matching the paper: "we sweep
//     in the Y direction") with half-extent ry;
//   - keep a binary tree ordered on the remaining axis x whose leaves are
//     annotated with the default value (∞ for MIN, −∞ for MAX);
//   - sweep a window of height 2·ry over the probes in ascending y: when a
//     point enters the window, write its value at its x-leaf; when a probe
//     reaches the window center, query the tree over the probe's x-range
//     (O(log n)); when a point exits, restore the default value;
//   - percolate every leaf change up the tree (the segtree package).
//
// Each point enters and exits exactly once and each probe costs one range
// query, so the whole pass is O((n+m) log n) for n points and m probes —
// the paper's O(n log^{d-1} n) with d = 2.
//
// Probes may carry different x half-extents (only the sweep axis must be
// constant) and may exclude one point, so "the weakest *other* friendly
// unit in my range" is expressible.
//
// The work splits in two. What depends only on where the points are — the
// x-order the tree is laid out in and the y-order they enter and leave the
// window in — is an Order, sorted once per point set and read by every
// sweep over it, from any goroutine. What a single sweep writes — the
// tree, the window membership, the probe order, the results — lives in a
// Sweeper, one per goroutine, reused from sweep to sweep.
package sweepline

import (
	"math"
	"slices"

	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/index/sorted"
)

// Site is where one aggregated-over unit stands, and the key reported when
// it is the arg-extremum. The value entering the MIN/MAX is not part of
// the site: one point set is swept under many value columns.
type Site struct {
	X, Y float64
	Key  int64
}

// Probe is one unit's query: its location, its x half-extent, and
// optionally the site (by index) to leave out of its own answer.
type Probe struct {
	X, Y    float64
	RX      float64
	Exclude int // site index, NoExclude to disable
}

// Result is the answer for one probe, in probe input order.
type Result struct {
	Value float64 // the extremum (identity value if nothing in range)
	Key   int64   // arg-extremum key, segtree.NoKey if nothing in range
	Found bool
}

// NoExclude disables a probe's self-exclusion.
const NoExclude = -1

// CenterHalf converts an interval to the (center, half-extent) pair a
// Probe and a sweep's ry are given in. A doubly unbounded interval maps
// to (0, +Inf): it comes only from an absent index axis, where every
// site carries the constant coordinate 0.
func CenterHalf(lo, hi float64) (float64, float64) {
	if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
		return 0, math.Inf(1)
	}
	return (lo + hi) / 2, (hi - lo) / 2
}

// Order holds the two orderings of a point set that every sweep over it
// needs: by (X, key) — the leaf layout of the sweep's tree — and by
// (Y, X, key) — the order points enter and, ry later, leave the window.
// Both are pure functions of the sites, so whoever owns the point set
// sorts once (Rebuild) and every sweep, whatever its value column, window
// height, aggregate or goroutine, shares the result. An Order is
// read-only between Rebuilds and safe for concurrent sweeps. The zero
// value is an empty point set.
type Order struct {
	sites []Site
	xs    []float64 // x-rank → x
	rank  []int32   // site index → x-rank
	byX   []int32   // x-rank → site index
	byY   []int32   // sweep position → site index
	guide sorted.Guide
}

// Rebuild makes o the orderings of sites (copied; the argument is not
// retained), reusing o's storage when its capacity suffices. Site i is the
// point a sweep's vals[i] and a probe's Exclude refer to.
//
// Over as many sites as o held, none with a NaN coordinate, both sorts
// start from o's previous orderings (sorted.Resort), so sites that moved
// a little re-sort in O(n). Both orders are total on such sites — byX by
// (x, key, index), byY by (y, x-rank), which is the stable sort by y of
// byX — so the orderings are a fresh Rebuild's. Rebuild returns the
// re-sorts' work, zero when it sorted afresh.
func (o *Order) Rebuild(sites []Site) sorted.Work {
	n, warm := len(sites), len(sites) == len(o.sites)
	o.sites = append(o.sites[:0], sites...)
	o.xs, o.rank = resize(o.xs, n), resize(o.rank, n)
	o.byX, o.byY = resize(o.byX, n), resize(o.byY, n)
	nan := false
	for i := range sites {
		nan = nan || sites[i].X != sites[i].X || sites[i].Y != sites[i].Y
	}
	warm = warm && !nan
	byXOrder := func(a, b int32) int {
		sa, sb := &sites[a], &sites[b]
		switch {
		case sa.X < sb.X:
			return -1
		case sa.X > sb.X:
			return 1
		case sa.Key != sb.Key:
			if sa.Key < sb.Key {
				return -1
			}
			return 1
		}
		return int(a - b)
	}
	var work sorted.Work
	if warm {
		work = sorted.Resort(o.byX, byXOrder)
	} else {
		for i := range o.byX {
			o.byX[i] = int32(i)
		}
		slices.SortFunc(o.byX, byXOrder)
	}
	for r, i := range o.byX {
		o.xs[r], o.rank[i] = sites[i].X, int32(r)
	}
	if nan {
		// No total order on these sites: byY is whatever the stable sort
		// by y over byX makes of them, and only its own steps reproduce it.
		copy(o.byY, o.byX)
		slices.SortStableFunc(o.byY, func(a, b int32) int { return cmpFloat(sites[a].Y, sites[b].Y) })
		o.guide.Search(o.xs)
		return work
	}
	byYOrder := func(a, b int32) int {
		if c := cmpFloat(sites[a].Y, sites[b].Y); c != 0 {
			return c
		}
		return int(o.rank[a] - o.rank[b])
	}
	if warm {
		work.Add(sorted.Resort(o.byY, byYOrder))
	} else {
		copy(o.byY, o.byX)
		slices.SortFunc(o.byY, byYOrder)
	}
	o.guide.Reset(o.xs)
	return work
}

// Len returns the number of sites.
func (o *Order) Len() int { return len(o.sites) }

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/4)
	}
	return s[:n]
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

// Sweeper is the scratch one goroutine sweeps on: a segment tree per
// aggregate, the window-membership table, the probe order and the result
// buffer, all kept between sweeps. A sweep leaves its tree and membership
// table clean — every leaf it set cleared — so the next one starts without
// resetting them. The zero value is ready to use.
type Sweeper struct {
	trees   [2]*segtree.Tree
	active  []bool // site index → its leaf is set
	probeY  []probeY
	results []Result
}

type probeY struct {
	y   float64
	idx int32
}

// Sweep computes, for every probe, the op-extremum of vals over the sites
// with |site.X−probe.X| ≤ probe.RX and |site.Y−probe.Y| ≤ ry, vals[i]
// being site i's value. All boundaries are inclusive, matching the paper's
// SQL range conditions. ry must be the same for all probes — the
// precondition the sweep technique requires; the planner only selects this
// operator when the script's range is a per-type constant. A negative (or
// NaN) ry is an empty window: every probe gets the identity, as a scan
// would. The returned slice is the Sweeper's own: valid until its next
// Sweep.
//
// The work follows the probes: a site whose window closes before the next
// probe reaches it is never written, and the leaves still set when the
// last probe has been answered are cleared one by one, instead of the
// whole tree being reset for the next sweep.
func (s *Sweeper) Sweep(o *Order, vals []float64, probes []Probe, ry float64, op segtree.Op) []Result {
	results := resize(s.results, len(probes))
	s.results = results
	n := o.Len()
	if n == 0 || len(probes) == 0 || !(ry >= 0) {
		for i := range results {
			results[i] = Result{Value: segtree.Identity(op), Key: segtree.NoKey}
		}
		return results
	}

	// Probes in ascending y; ties keep input order for determinism. That
	// is the total order (y, index) unless a y is NaN, which only the
	// stable sort's own steps can place.
	order := resize(s.probeY, len(probes))
	s.probeY = order
	nan := false
	for i := range probes {
		order[i] = probeY{probes[i].Y, int32(i)}
		nan = nan || probes[i].Y != probes[i].Y
	}
	if nan {
		slices.SortStableFunc(order, func(a, b probeY) int { return cmpFloat(a.y, b.y) })
	} else {
		slices.SortFunc(order, func(a, b probeY) int {
			if c := cmpFloat(a.y, b.y); c != 0 {
				return c
			}
			return int(a.idx - b.idx)
		})
	}

	tree := s.trees[op]
	if tree == nil {
		tree = segtree.New(n, op)
		s.trees[op] = tree
	} else {
		tree.Resize(n)
	}
	s.active = resize(s.active, n)

	// Sites in y-order drive both the enter stream (at y−ry) and the exit
	// stream (at y+ry): with constant ry both streams are the same order,
	// and the exit pointer never passes the enter pointer.
	sites, rank, byY := o.sites, o.rank, o.byY
	enter, exit := 0, 0
	for _, po := range order {
		pr := &probes[po.idx]
		// Activate sites whose window includes pr.Y: y−ry ≤ pr.Y ≤ y+ry.
		// One whose window already closed (y+ry < pr.Y) exits below
		// without any probe having seen it.
		for ; enter < n && sites[byY[enter]].Y-ry <= pr.Y; enter++ {
			if i := byY[enter]; sites[i].Y+ry >= pr.Y {
				tree.Set(int(rank[i]), vals[i], sites[i].Key)
				s.active[i] = true
			}
		}
		// Deactivate sites that have fallen behind: y+ry < pr.Y.
		for ; exit < n && sites[byY[exit]].Y+ry < pr.Y; exit++ {
			if i := byY[exit]; s.active[i] {
				tree.Clear(int(rank[i]))
				s.active[i] = false
			}
		}
		lo, hi, _ := o.guide.Span(pr.X-pr.RX, pr.X+pr.RX)

		// Self-exclusion: blank the excluded site's leaf around the query.
		ex := pr.Exclude
		excluded := ex >= 0 && s.active[ex]
		if excluded {
			tree.Clear(int(rank[ex]))
		}
		v, k := tree.Query(lo, hi)
		if excluded {
			tree.Set(int(rank[ex]), vals[ex], sites[ex].Key)
		}
		results[po.idx] = Result{Value: v, Key: k, Found: k != segtree.NoKey}
	}
	// Leave the tree and the membership table clean for the next sweep.
	for _, i := range byY[exit:enter] {
		if s.active[i] {
			tree.Clear(int(rank[i]))
			s.active[i] = false
		}
	}
	return results
}
