// Index classes. The paper gives each class of aggregate one structure
// (Section 5.3): a layered range tree for divisible aggregates over a
// window, sweep lines for MIN/MAX over one, a kD-tree for nearest
// neighbour and a precomputed extremum for a global MIN/MAX; the range
// tree no axes would build is a fold (membership.go). Each is one type
// here, laid out per membership group by NewAnalyzer and kept per
// partition in the group's parts. A class owns what its structure is
// built from and what invalidates it (deps), how one partition's
// structure is built, patched or kept (refresh), how a probe reads it
// when it is built, and how a probe is answered without it — one pass
// over the partition's rows that returns the same bits, the path of an
// unbuilt provider (FreezeUnbuilt). It counts its own work in Stats, and
// a probe method reads the group index once to learn which path it takes.
package exec

import (
	"math"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/kdtree"
	"github.com/epicscale/sgl/internal/index/rangetree"
	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/index/sweepline"
	"github.com/epicscale/sgl/internal/sgl/ast"
)

// slotOp is what a refresh does to one structure of a partition.
type slotOp uint8

const (
	opSkip  slotOp = iota // not asked for
	opKeep                // reused as it stands
	opBuild               // rebuilt from the partition's current rows
	opPatch               // payload sums recomputed in place: the points did not move
)

// slotOps names, by slot, the structures a refresh rebuilds, patches and
// keeps.
type slotOps struct{ build, patch, keep slotMask }

// of returns what o does to slot s (-1, no slot: opSkip).
func (o slotOps) of(s int) slotOp {
	switch {
	case o.build.has(s):
		return opBuild
	case o.patch.has(s):
		return opPatch
	case o.keep.has(s):
		return opKeep
	}
	return opSkip
}

// count books one structure's refresh.
func (s *Stats) count(op slotOp) {
	switch op {
	case opBuild:
		s.IndexBuilds++
	case opPatch:
		s.IndexPatches++
	case opKeep:
		s.IndexReuses++
	}
}

// slotDep is what invalidates a structure built over a partition whose
// membership is unchanged: a changed shape column rebuilds it, a changed
// vals column alone recomputes its payload sums in place.
type slotDep struct{ shape, vals depMask }

// refresh brings one partition's structures up to date with its rows,
// class by class, into the partition's own storage. Each structure is a
// pure function of the member rows' values, which is what lets
// MaintainFrom keep a partition whose members did not change.
func (p *Indexed) refresh(g *membership, pt *part, ops slotOps) {
	for i := range g.trees {
		g.trees[i].refresh(p, pt, ops.of(g.trees[i].slot))
	}
	for i := range g.sweeps {
		g.sweeps[i].refresh(p, pt, ops.of(g.sweeps[i].slot))
	}
	g.fold.refresh(p, pt, ops.of(g.fold.slot))
	g.kd.refresh(p, pt, ops.of(g.kd.slot))
	g.ext.refresh(p, pt, ops.of(g.ext.slot))
}

// slotDeps returns, by slot, what invalidates each of the group's
// structures.
func (g *membership) slotDeps() (deps [maxSlots]slotDep) {
	set := func(s int, d slotDep) {
		if s >= 0 {
			deps[s] = d
		}
	}
	for i := range g.trees {
		set(g.trees[i].slot, g.trees[i].deps())
	}
	for i := range g.sweeps {
		set(g.sweeps[i].slot, g.sweeps[i].deps())
	}
	set(g.fold.slot, g.fold.deps())
	set(g.kd.slot, g.kd.deps())
	set(g.ext.slot, g.ext.deps())
	return deps
}

// grown returns &(*s)[i], growing *s to hold it and keeping its elements
// (and their storage).
func grown[T any](s *[]T, i int) *T {
	if len(*s) <= i {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// ---------------------------------------------------------------------------
// Range trees

// treeClass is a surface's layered range tree (rangetree), carrying the
// union of the payload columns its group's divisible outputs over the
// surface sum; area actions report their targets off it too. A changed
// axis column moves its points; a changed payload column only its sums.
type treeClass struct {
	surface
	slot    int // -1 when nothing sums or reports over the surface
	payload payloadSpec
}

func (c *treeClass) deps() slotDep { return slotDep{c.shape, c.payload.deps} }

func (c *treeClass) refresh(p *Indexed, pt *part, op slotOp) {
	switch op {
	case opBuild:
		p.Stats.AddResort(grown(&pt.trees, c.at).Rebuild(p.partPoints(c.x, c.y, pt.rows), len(c.payload.fns), p.partVals(&c.payload, pt.rows)))
	case opPatch:
		pt.trees[c.at].Repatch(p.partVals(&c.payload, pt.rows))
	}
	p.Stats.count(op)
}

// add adds the payload sums of parts' points inside rect to payload: a
// guided probe of each partition's tree when built, otherwise one pass
// over its rows adding the same sums (rangetree.AggregateOnce).
func (c *treeClass) add(p *Indexed, idx *groupIndex, parts []*part, rect geom.Rect, payload []float64) {
	if idx.built.has(c.slot) {
		for _, pt := range parts {
			p.Stats.BoundSteps += pt.trees[c.at].Aggregate(rect, payload)
		}
		p.Stats.TreeProbes += len(parts)
		return
	}
	for _, pt := range parts {
		rows := pt.rows
		rangetree.AggregateOnce(&p.once, p.partPoints(c.x, c.y, rows), func(i int, dst []float64) {
			p.rowPayload(&c.payload, p.env.Rows[rows[i]], dst)
		}, rect, payload)
	}
	p.Stats.TreeOnce += len(parts)
}

// report visits the rows of parts' points inside rect, partition by
// partition, in each tree's report order.
func (c *treeClass) report(p *Indexed, parts []*part, rect geom.Rect, visit func(ri int, row []float64)) {
	for _, pt := range parts {
		pt.trees[c.at].Report(rect, func(j int) {
			ri := pt.rows[j]
			visit(ri, p.env.Rows[ri])
		})
	}
}

// partPoints returns the range-tree points of a partition's rows over the
// axis columns (x, y), in row order. On the position axes of a provider
// holding the position column (SeedPositions) a partition of every row
// gets the column itself, and any other partition the column's entries
// for its rows; everything else is gathered from the rows. All but the
// column itself land in the view's scratch.
func (p *Indexed) partPoints(xCol, yCol int, rows []int) []rangetree.Point {
	column := p.pos != nil && xCol == p.an.posX && yCol == p.an.posY
	if column && len(rows) == len(p.pos) {
		return p.pos // rows ascend without repeats, so they are all of them
	}
	if cap(p.pts) < len(rows) {
		p.pts = make([]rangetree.Point, len(rows))
	}
	p.pts = p.pts[:len(rows)]
	if column {
		for j, ri := range rows {
			p.pts[j] = p.pos[ri]
		}
		return p.pts
	}
	for j, ri := range rows {
		row := p.env.Rows[ri]
		p.pts[j] = rangetree.Point{X: axisVal(row, xCol), Y: axisVal(row, yCol)}
	}
	return p.pts
}

// partVals evaluates the flattened payload columns of a partition's rows,
// in row order, into the view's scratch — all a payload-preserving
// Repatch needs (the points are unchanged by definition there).
func (p *Indexed) partVals(spec *payloadSpec, rows []int) []float64 {
	w := len(spec.fns)
	if cap(p.vals) < len(rows)*w {
		p.vals = make([]float64, len(rows)*w)
	}
	p.vals = p.vals[:len(rows)*w]
	for j, ri := range rows {
		p.rowPayload(spec, p.env.Rows[ri], p.vals[j*w:(j+1)*w])
	}
	return p.vals
}

// rowPayload evaluates one row's payload columns into dst.
func (p *Indexed) rowPayload(spec *payloadSpec, row, dst []float64) {
	f := p.onRow(row)
	for c, fn := range spec.fns {
		v := 1.0
		if fn != nil {
			v = fn(f)
			if spec.squared[c] {
				v *= v
			}
		}
		dst[c] = v
	}
}

// ---------------------------------------------------------------------------
// The fold

// foldClass is the group's row-order fold: per partition, the payload
// sums of the axis-less divisible outputs, the root prefix of the range
// tree no axes would build. Only its payload columns invalidate it, and a
// patch sums them afresh.
type foldClass struct {
	slot    int // -1 when no divisible output is axis-less
	payload payloadSpec
}

func (c *foldClass) deps() slotDep { return slotDep{vals: c.payload.deps} }

func (c *foldClass) refresh(p *Indexed, pt *part, op slotOp) {
	if op == opBuild || op == opPatch {
		pt.fold = c.sum(p, pt.rows, pt.fold)
	}
	p.Stats.count(op)
}

// sum sums the payload columns of a partition's rows into dst (grown to
// the payload's width), each column left to right in row order from
// zero — the root prefix of the range tree no axes would build — and
// returns it.
func (c *foldClass) sum(p *Indexed, rows []int, dst []float64) []float64 {
	w := len(c.payload.fns)
	dst = sized(dst, w)
	clear(dst)
	if cap(p.vals) < w {
		p.vals = make([]float64, w)
	}
	vals := p.vals[:w]
	for _, ri := range rows {
		p.rowPayload(&c.payload, p.env.Rows[ri], vals)
		for k, v := range vals {
			dst[k] = dst[k] + v
		}
	}
	return dst
}

// add adds each of parts' folds to payload: read when built (a probe of
// the tree's root), summed afresh otherwise.
func (c *foldClass) add(p *Indexed, idx *groupIndex, parts []*part, payload []float64) {
	built := idx.built.has(c.slot)
	for _, pt := range parts {
		fold := pt.fold
		if !built {
			p.fold = c.sum(p, pt.rows, p.fold)
			fold = p.fold
		}
		for k, v := range fold {
			payload[k] += v
		}
	}
	if built {
		p.Stats.TreeProbes += len(parts)
	} else {
		p.Stats.FoldOnce += len(parts)
	}
}

// ---------------------------------------------------------------------------
// Sweep orderings

// sweepClass is a surface's sweep orderings (sweepline.Order): its points
// sorted once per build and read by every MIN/MAX output, window height
// and view sweeping the partition (Section 5.3.1). They are the sort
// every sweep used to repeat, and are counted neither built nor kept. A
// sweep answers a batch of probes only (sweep), so the class has no
// one-shot path: an unbuilt provider never batches (BatchBeneficial).
type sweepClass struct {
	surface
	slot int // -1 when no MIN/MAX output sweeps the surface
}

func (c *sweepClass) deps() slotDep { return slotDep{shape: c.shape} }

func (c *sweepClass) refresh(p *Indexed, pt *part, op slotOp) {
	if op != opBuild {
		return
	}
	kc := p.prog.Schema.KeyCol()
	p.sites = p.sites[:0]
	for _, ri := range pt.rows {
		row := p.env.Rows[ri]
		p.sites = append(p.sites, sweepline.Site{X: axisVal(row, c.x), Y: axisVal(row, c.y), Key: int64(row[kc])})
	}
	p.Stats.AddResort(grown(&pt.sweeps, c.at).Rebuild(p.sites))
}

// batchScratch is a view's working storage for sweeps, kept from batch to
// batch.
type batchScratch struct {
	sweeper sweepline.Sweeper
	groups  []sweepGroup
	// byPart lists, by partition ordinal, the groups sweeping that
	// partition (one per window height, a handful at most).
	byPart   [][]int32
	vals     [][]float64 // by partition ordinal: the current output's value column
	valsDone []bool
	// argFold holds, by result row, the running answer of an arg-extremum
	// output: the result row stores the winning key, the value it won
	// with is here.
	argFold []globalExt
}

type sweepGroup struct {
	part   *part
	height float64
	probes []sweepline.Probe
	rowIdx []int32 // result row per probe
}

// sweep fills the MinMax-class outputs of results, a's answers for units,
// by sweeping the surface's orderings (built first when missing).
func (c *sweepClass) sweep(p *Indexed, a *AggAnalysis, units [][]float64, args [][]float64, results [][]float64) {
	def := a.Def
	idx := p.groupFor(a.group, a.need|slotBit(c.slot))
	b := &p.batch

	// Each probe goes to the partitions its eq conjuncts select; probes
	// are grouped by (partition, window height), groups in order of first
	// appearance, probes within a group in unit order. The grouping is the
	// same for every output.
	b.groups = b.groups[:0]
	if len(b.byPart) < len(idx.list) {
		b.byPart = append(b.byPart, make([][]int32, len(idx.list)-len(b.byPart))...)
	}
	for ord := range b.byPart {
		b.byPart[ord] = b.byPart[ord][:0]
	}
probes:
	for i, unit := range units {
		var arg []float64
		if args != nil {
			arg = args[i]
		}
		f := p.onProbe(unit, arg)
		for _, cond := range a.UOnlyFn {
			if !cond(f) {
				continue probes
			}
		}
		rect := probeRect(a.Axes, f)
		matched, _, _ := p.matchParts(idx, a.Eqs, f)
		cx, rx := sweepline.CenterHalf(rect.MinX, rect.MaxX)
		cy, ryHalf := sweepline.CenterHalf(rect.MinY, rect.MaxY)
		for _, pt := range matched {
			height := 2 * ryHalf
			gi := int32(-1)
			for _, k := range b.byPart[pt.ord] {
				if b.groups[k].height == height {
					gi = k
					break
				}
			}
			if gi < 0 {
				gi = int32(len(b.groups))
				b.byPart[pt.ord] = append(b.byPart[pt.ord], gi)
				if len(b.groups) < cap(b.groups) {
					b.groups = b.groups[:gi+1] // reuse the slot's probe buffers
				} else {
					b.groups = append(b.groups, sweepGroup{})
				}
				g := &b.groups[gi]
				g.part, g.height, g.probes, g.rowIdx = pt, height, g.probes[:0], g.rowIdx[:0]
			}
			g := &b.groups[gi]
			g.probes = append(g.probes, sweepline.Probe{X: cx, Y: cy, RX: rx, Exclude: sweepline.NoExclude})
			g.rowIdx = append(g.rowIdx, int32(i))
		}
	}

	if len(b.vals) < len(idx.list) {
		b.vals = append(b.vals, make([][]float64, len(idx.list)-len(b.vals))...)
		b.valsDone = make([]bool, len(idx.list))
	}
	for outIdx, o := range def.Outputs {
		if a.OutClass[outIdx] != ClassMinMax {
			continue
		}
		op := segtree.Min
		if o.Func == ast.Max || o.Func == ast.ArgMax {
			op = segtree.Max
		}
		isArg := o.Func == ast.ArgMin || o.Func == ast.ArgMax
		if isArg {
			if cap(b.argFold) < len(units) {
				b.argFold = make([]globalExt, len(units))
			}
			b.argFold = b.argFold[:len(units)]
			clear(b.argFold)
		}
		clear(b.valsDone)
		for gi := range b.groups {
			g := &b.groups[gi]
			// The output's value column over the partition, evaluated once
			// however many window heights sweep it.
			vals := b.vals[g.part.ord]
			if !b.valsDone[g.part.ord] {
				vals = vals[:0]
				for _, ri := range g.part.rows {
					vals = append(vals, a.ArgFn[outIdx](p.onRow(p.env.Rows[ri])))
				}
				b.vals[g.part.ord], b.valsDone[g.part.ord] = vals, true
			}
			p.Stats.Sweeps++
			for j, r := range b.sweeper.Sweep(&g.part.sweeps[c.at], vals, g.probes, g.height/2, op) {
				if !r.Found {
					continue
				}
				ri := g.rowIdx[j]
				cur := &results[ri][outIdx]
				switch {
				case isArg:
					// Arg-extrema fold across partitions on the value, which
					// the result row (holding the key) does not carry.
					if st := &b.argFold[ri]; beats(op == segtree.Min, r.Value, r.Key, *st) {
						*st = globalExt{val: r.Value, key: r.Key, ok: true}
						*cur = float64(r.Key)
					}
				case op == segtree.Min:
					if r.Value < *cur {
						*cur = r.Value
					}
				default:
					if r.Value > *cur {
						*cur = r.Value
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// kD-trees

// kdClass is the group's kD-tree over the position columns, shared by
// every nearest output; a moved position rebuilds it. It has two
// searches: Nearest for a probe that moved or keeps no certificate, and
// NearestRanked, which also ranks the runners-up a certificate needs
// (certify.go), for a stationary one.
type kdClass struct {
	slot  int // -1 when no nearest output
	shape depMask
}

func (c *kdClass) deps() slotDep { return slotDep{shape: c.shape} }

func (c *kdClass) refresh(p *Indexed, pt *part, op slotOp) {
	if op == opBuild {
		pts := c.points(p, pt.rows)
		pt.trackMotion(pts, p.tracking)
		pt.kd.Rebuild(pts)
	}
	p.Stats.count(op)
}

// points evaluates the kD-tree points of a partition's rows, in row
// order, into the view's scratch; each point's reference is its row.
func (c *kdClass) points(p *Indexed, rows []int) []kdtree.Point {
	xc, yc, kc := p.an.posX, p.an.posY, p.prog.Schema.KeyCol()
	if cap(p.kdPts) < len(rows) {
		p.kdPts = make([]kdtree.Point, len(rows))
	}
	p.kdPts = p.kdPts[:len(rows)]
	for j, ri := range rows {
		row := p.env.Rows[ri]
		p.kdPts[j] = kdtree.Point{X: row[xc], Y: row[yc], Key: int64(row[kc]), Ref: int32(ri)}
	}
	return p.kdPts
}

// search answers a's nearest outputs for the probe of env row row (-1:
// not a row): when the provider keeps a certificate for it and the kD-
// trees are built, a stationary probe's search also ranks the runners-up
// and bounds the rest, and records the certificate — the kD points'
// references are their rows — and any other search voids it.
func (c *kdClass) search(p *Indexed, a *AggAnalysis, idx *groupIndex, parts []*part, unit []float64, row int) kdtree.Result {
	built := idx.built.has(c.slot)
	cert := p.certSlot(a, row)
	if cert == nil || !built || !p.stationary(a, row) {
		if cert != nil {
			cert.cand[0] = -1
		}
		return c.nearest(p, built, parts, unit)
	}
	rk := c.ranked(p, parts, unit)
	cert.lo = math.Sqrt(rk.Rest) * (1 - certMargin)
	for i, r := range rk.Top {
		cert.cand[i] = -1
		if r.Found {
			cert.cand[i] = r.Ref
		}
	}
	return rk.Top[0]
}

// nearest searches parts for the unit's nearest other row: each
// partition's kD-tree when built, one pass over its rows otherwise. Ties
// go to the smaller key.
func (c *kdClass) nearest(p *Indexed, built bool, parts []*part, unit []float64) kdtree.Result {
	best := kdtree.Result{DistSq: math.Inf(1)}
	self := int64(unit[p.prog.Schema.KeyCol()])
	ux, uy := unit[p.an.posX], unit[p.an.posY]
	for _, pt := range parts {
		var r kdtree.Result
		if built {
			r = pt.kd.Nearest(ux, uy, self)
		} else {
			r = kdtree.NearestOnce(c.points(p, pt.rows), ux, uy, self)
		}
		if r.Found && (!best.Found || r.DistSq < best.DistSq ||
			(r.DistSq == best.DistSq && r.Key < best.Key)) {
			best = r
		}
	}
	if built {
		p.Stats.KDProbes += len(parts)
	} else {
		p.Stats.KDOnce += len(parts)
	}
	return best
}

// ranked is nearest over built kD-trees that also ranks the runners-up
// and bounds the rest of the matched points (kdtree.Ranking).
func (c *kdClass) ranked(p *Indexed, parts []*part, unit []float64) kdtree.Ranking {
	rk := kdtree.NewRanking()
	self := int64(unit[p.prog.Schema.KeyCol()])
	ux, uy := unit[p.an.posX], unit[p.an.posY]
	for _, pt := range parts {
		pr := pt.kd.NearestRanked(ux, uy, self)
		rk.Rest = min(rk.Rest, pr.Rest)
		for i := range pr.Top {
			if r := &pr.Top[i]; r.Found {
				rk.Add(kdtree.Point{X: r.X, Y: r.Y, Key: r.Key, Ref: r.Ref}, r.DistSq)
			}
		}
	}
	p.Stats.KDProbes += len(parts)
	return rk
}

// nearestOutput is a nearest output's value for the winner key at (x, y),
// squared distance d2 from the probe.
func nearestOutput(fn ast.AggFunc, key int64, x, y, d2 float64) float64 {
	switch fn {
	case ast.NearestKey:
		return float64(key)
	case ast.NearestX:
		return x
	case ast.NearestY:
		return y
	default:
		return math.Sqrt(d2)
	}
}

// ---------------------------------------------------------------------------
// Global extrema

// extClass is the group's global extrema: per partition, one (value, key)
// fold per distinct (direction, argument) of its global MIN/MAX outputs,
// all built together. A changed argument column rebuilds them.
type extClass struct {
	slot  int // -1 when no global output
	exts  []extremum
	shape depMask
}

func (c *extClass) deps() slotDep { return slotDep{shape: c.shape} }

// globalExt is one extremum's fold: the winning value and its row's key.
type globalExt struct {
	val float64
	key int64
	ok  bool
}

func (c *extClass) refresh(p *Indexed, pt *part, op slotOp) {
	if op == opBuild {
		pt.ext = sized(pt.ext, len(c.exts))
		for i := range c.exts {
			pt.ext[i] = c.fold(p, i, pt.rows)
		}
	}
	p.Stats.count(op)
}

// fold folds extremum i over a partition's rows, in row order.
func (c *extClass) fold(p *Indexed, i int, rows []int) globalExt {
	e, kc := &c.exts[i], p.prog.Schema.KeyCol()
	ext := globalExt{}
	for _, ri := range rows {
		row := p.env.Rows[ri]
		if v, k := e.fn(p.onRow(row)), int64(row[kc]); beats(e.isMin, v, k, ext) {
			ext = globalExt{val: v, key: k, ok: true}
		}
	}
	return ext
}

// answer returns extremum i over parts: each partition's fold, read when
// built and folded afresh otherwise.
func (c *extClass) answer(p *Indexed, idx *groupIndex, parts []*part, i int) globalExt {
	built, e := idx.built.has(c.slot), &c.exts[i]
	ext := globalExt{}
	for _, pt := range parts {
		pe := globalExt{}
		if built {
			pe = pt.ext[i]
		} else {
			pe = c.fold(p, i, pt.rows)
		}
		if pe.ok && beats(e.isMin, pe.val, pe.key, ext) {
			ext = pe
		}
	}
	if built {
		p.Stats.ExtProbes += len(parts)
	} else {
		p.Stats.ExtOnce += len(parts)
	}
	return ext
}

// beats reports whether value v of the row keyed k displaces cur as the
// minimum (isMin) or maximum: the first wins among equal values unless a
// later one has a smaller key.
func beats(isMin bool, v float64, k int64, cur globalExt) bool {
	return !cur.ok || (isMin && v < cur.val) || (!isMin && v > cur.val) || (v == cur.val && k < cur.key)
}
