package exec

import (
	"encoding/binary"
	"math"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/kdtree"
	"github.com/epicscale/sgl/internal/index/rangetree"
	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/index/sweepline"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Indexed is the paper's optimized aggregate query evaluator (Section 5.3):
// per-tick, per-definition index structures — layered range trees for
// divisible aggregates, kD-trees for nearest-neighbour, sweep lines for
// MIN/MAX — built over categorical partitions of E and probed per unit.
//
// Construct one Indexed per tick; indices are built lazily on first use of
// each definition (the paper's two index-building phases fall out of this:
// decision-phase aggregates trigger builds before probing, action-phase
// structures are built when actions run). Indexed must agree exactly with
// interp.Naive; the differential tests in this package enforce that.
//
// An Indexed is not safe for concurrent use: index builds and the Stats
// counters mutate shared maps. For parallel tick execution, call Freeze
// once to build every index the program can use, then give each worker its
// own Fork — a view that shares the frozen read-only indexes but owns its
// Stats and batch scratch.
type Indexed struct {
	prog *sem.Program
	an   *Analyzer
	env  *table.Table

	// f is the frame every compiled definition term of this view
	// evaluates against: rebound per probe, never shared between views
	// (Fork copies it by value), carrying the tick's random source.
	f expr.Frame

	keyIndex map[int64]int
	aggIdx   map[*ast.AggDef]*aggIndex
	actIdx   map[*ast.ActDef]*actIndex

	// frozen is set by Freeze: every index the program can demand exists
	// and the shared state is read-only from here on. forked marks a view
	// returned by Fork; a fork must never build an index lazily (that
	// would race with sibling forks), so the lazy builders panic on one.
	frozen bool
	forked bool

	// argFold holds cross-partition arg-extremum state during one batch
	// call; reset at the start of every EvalAggBatch.
	argFold map[[2]int]argState

	// probeReqs, probeParts and probePayload are per-instance scratch for
	// the EvalAggInto probe path. EvalAgg never touches them, so its
	// returned slices stay safe to retain; Fork resets them so sibling
	// views never share backing arrays.
	probeReqs    []matchReq
	probeParts   []*aggPart
	probePayload []float64

	// invariant memoises the answers of probe-invariant definitions
	// (AggAnalysis.ProbeInvariant) per matched partition set, for the
	// lifetime of this view — one tick. A handful of entries (definitions
	// × partition sets), searched linearly; Fork starts empty so sibling
	// views never share it.
	invariant []invariantAnswer

	// keyBuf is partition-key scratch for index builds and maintenance,
	// which run on the provider's single goroutine before any Fork.
	keyBuf []byte

	// Stats counts index builds and probes for the benchmark reports.
	Stats Stats
}

// Stats counts the work the indexed evaluator performed in one tick.
type Stats struct {
	IndexBuilds int
	// IndexReuses counts index structures carried over unchanged from the
	// previous tick by MaintainFrom, and IndexPatches counts range trees
	// whose payload prefix aggregates were recomputed in place (shape
	// reused). MaintainFallbacks counts definitions whose relevant dirty
	// fraction exceeded the threshold, forcing a from-scratch rebuild.
	IndexReuses       int
	IndexPatches      int
	MaintainFallbacks int
	TreeProbes        int
	KDProbes          int
	Sweeps            int
	ScanProbes        int
}

var _ interp.Provider = (*Indexed)(nil)

// NewIndexed returns an indexed provider for one tick. The analyzer is
// shared across ticks (classification is per-program).
func NewIndexed(an *Analyzer, env *table.Table, r rng.TickSource) *Indexed {
	return &Indexed{
		prog: an.prog, an: an, env: env,
		f:      expr.Frame{R: r},
		aggIdx: map[*ast.AggDef]*aggIndex{},
		actIdx: map[*ast.ActDef]*actIndex{},
	}
}

// SeedKeyIndex installs a prebuilt key → row-index map (over the same
// environment snapshot) so Freeze does not rebuild one the caller already
// has. Ignored if a lookup was already built.
func (p *Indexed) SeedKeyIndex(idx map[int64]int) {
	if p.keyIndex == nil {
		p.keyIndex = idx
	}
}

// Freeze eagerly builds every index structure the program can demand this
// tick: the key lookup table, one aggregate index per indexable aggregate
// definition, and one spatial index per area action. After Freeze the
// provider's shared state is only ever read, so Forked views may probe it
// from concurrent goroutines. Build work lands on the receiver's Stats.
//
// Eagerness is the price of lock-free sharing: the lazy serial path skips
// definitions a tick never probes, so a frozen provider may build more
// indexes (and report higher Stats.IndexBuilds) than a serial tick over
// the same environment. Game outcomes are unaffected.
func (p *Indexed) Freeze() {
	p.keyLookup()
	for _, def := range p.prog.Script.Aggs {
		if p.an.Agg(def).Indexable {
			p.aggIndexFor(def)
		}
	}
	for _, def := range p.prog.Script.Acts {
		if p.an.Act(def).Class == ActArea {
			p.actIndexFor(def)
		}
	}
	p.frozen = true
}

// Fork returns a worker-private view of a frozen provider: it shares the
// immutable per-tick indexes (and the environment snapshot) with the
// receiver but owns its Stats counters and batch scratch state. Fork
// without a prior Freeze is unsafe — a lazy index build in one fork would
// race with reads in another — and panics rather than racing silently.
func (p *Indexed) Fork() *Indexed {
	if !p.frozen {
		panic("exec: Fork before Freeze — forked views share index state and must not build lazily")
	}
	c := *p
	c.Stats = Stats{}
	c.argFold = nil
	c.probeReqs, c.probeParts, c.probePayload = nil, nil, nil
	c.invariant, c.keyBuf = nil, nil
	c.forked = true
	return &c
}

// guardLazyBuild panics when a forked view is about to build an index
// structure lazily: every structure a fork can probe must already exist
// (Freeze builds them all), so a cache miss here means shared mutable
// state would be written from a worker goroutine.
func (p *Indexed) guardLazyBuild(what string) {
	if p.forked {
		panic("exec: lazy " + what + " build on a forked view — Freeze must build every index before Fork")
	}
}

// Add folds another view's counters into s (used to merge per-worker
// stats after a parallel tick).
func (s *Stats) Add(o Stats) {
	s.IndexBuilds += o.IndexBuilds
	s.IndexReuses += o.IndexReuses
	s.IndexPatches += o.IndexPatches
	s.MaintainFallbacks += o.MaintainFallbacks
	s.TreeProbes += o.TreeProbes
	s.KDProbes += o.KDProbes
	s.Sweeps += o.Sweeps
	s.ScanProbes += o.ScanProbes
}

// ---------------------------------------------------------------------------
// Per-definition aggregate indices

// payloadSpec lays out the flattened per-point payload columns a range tree
// carries: literal 1s (counts), argument terms, and squared argument terms.
type payloadSpec struct {
	terms   []ast.Term // nil entry = constant 1
	fns     []expr.Num // terms compiled (nil entry = constant 1)
	squared []bool
	index   map[string]int
}

func (ps *payloadSpec) col(t ast.Term, squared bool) int {
	key := "1"
	if t != nil {
		key = t.String()
	}
	if squared {
		key += "²"
	}
	if ps.index == nil {
		ps.index = map[string]int{}
	}
	if i, ok := ps.index[key]; ok {
		return i
	}
	ps.terms = append(ps.terms, t)
	ps.squared = append(ps.squared, squared)
	ps.index[key] = len(ps.terms) - 1
	return len(ps.terms) - 1
}

// divCols records which payload columns serve one divisible output.
type divCols struct {
	cnt, sum, sumSq int // -1 when unused
}

type aggIndex struct {
	a     *AggAnalysis
	parts map[string]*aggPart
	order []string   // deterministic partition iteration order
	list  []*aggPart // parts[order[i]], so probes never hash a key
	// rowPart maps every environment row to its partition ordinal in
	// order, or -1 when the e-only filter excludes it. MaintainFrom uses
	// it to find the partition a dirty row used to live in.
	rowPart []int32
}

// finish derives list and the row → partition-ordinal map from parts and
// order (called after membership is final).
func (idx *aggIndex) finish(n int) {
	idx.list = make([]*aggPart, len(idx.order))
	idx.rowPart = makeRowPart(n)
	for ord, key := range idx.order {
		part := idx.parts[key]
		idx.list[ord] = part
		for _, ri := range part.rows {
			idx.rowPart[ri] = int32(ord)
		}
	}
}

func makeRowPart(n int) []int32 {
	rp := make([]int32, n)
	for i := range rp {
		rp[i] = -1
	}
	return rp
}

type aggPart struct {
	rows   []int // env row indexes
	rt     *rangetree.Tree
	kd     *kdtree.Tree
	global []globalExt // per output: precomputed extremum (ClassGlobal)
}

type globalExt struct {
	val float64
	key int64
	ok  bool
}

// AppendValueKey appends v's equality class to buf as eight big-endian
// bytes of math.Float64bits: two values get the same bytes exactly when
// they are the same float64 — −0 and +0 differ, as they do under the %g
// rendering this replaces — except that every NaN is one class, as "NaN"
// was. The bytes are only ever compared for equality.
func AppendValueKey(buf []byte, v float64) []byte {
	if v != v {
		v = math.NaN()
	}
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendPartitionKey appends row's partition key over cols to buf: one
// fixed-width value key per column. Partition order comes from first-row
// order, never from key order.
func appendPartitionKey(buf []byte, row []float64, cols []int) []byte {
	for _, c := range cols {
		buf = AppendValueKey(buf, row[c])
	}
	return buf
}

// partitionKey returns row's partition key in the view's scratch buffer,
// valid until the next call. Looking a map up with string(key) does not
// allocate; only inserting a new partition does.
func (p *Indexed) partitionKey(row []float64, cols []int) []byte {
	p.keyBuf = appendPartitionKey(p.keyBuf[:0], row, cols)
	return p.keyBuf
}

// eqCols returns the sorted distinct columns of the analysis' eq conjuncts.
func eqCols(eqs []EqCond) []int {
	var cols []int
	for _, eq := range eqs {
		dup := false
		for _, c := range cols {
			if c == eq.Col {
				dup = true
			}
		}
		if !dup {
			cols = append(cols, eq.Col)
		}
	}
	return cols
}

// onRow binds the view's frame to one environment row standing in for
// both u and e — the build-time evaluation context of e-only conjuncts
// and index payload terms, which mention no probe unit and no parameter.
func (p *Indexed) onRow(row []float64) *expr.Frame {
	p.f.Unit, p.f.Args, p.f.Target = row, nil, row
	return &p.f
}

// onProbe binds the view's frame to a probing unit and its arguments,
// with u standing in for e: the context of probe-time terms (u-only
// conjuncts, equality right-hand sides, axis bounds).
func (p *Indexed) onProbe(unit, args []float64) *expr.Frame {
	p.f.Unit, p.f.Args, p.f.Target = unit, args, unit
	return &p.f
}

// passesEOnly evaluates the e-only conjuncts against one row.
func (p *Indexed) passesEOnly(conds []expr.Cond, row []float64) bool {
	f := p.onRow(row)
	for _, c := range conds {
		if !c(f) {
			return false
		}
	}
	return true
}

// aggIndexFor builds (once per tick) the index structures for a definition.
func (p *Indexed) aggIndexFor(def *ast.AggDef) *aggIndex {
	if idx, ok := p.aggIdx[def]; ok {
		return idx
	}
	p.guardLazyBuild("aggregate index")
	a := p.an.Agg(def)
	idx := &aggIndex{a: a, parts: map[string]*aggPart{}}

	// Partition rows by the eq columns, applying e-only filters at build.
	for i, row := range p.env.Rows {
		if !p.passesEOnly(a.EOnlyFn, row) {
			continue
		}
		key := p.partitionKey(row, a.eqCols)
		part := idx.parts[string(key)]
		if part == nil {
			k := string(key)
			part = &aggPart{}
			idx.parts[k] = part
			idx.order = append(idx.order, k)
		}
		part.rows = append(part.rows, i)
	}
	idx.finish(p.env.Len())

	for _, part := range idx.list {
		p.buildAggPart(a, part)
	}
	p.aggIdx[def] = idx
	return idx
}

// buildAggPart (re)builds every structure the definition demands for one
// partition from the current environment rows. The result is a pure
// function of the member rows' values, which is what lets MaintainFrom
// reuse a partition whose members did not change.
func (p *Indexed) buildAggPart(a *AggAnalysis, part *aggPart) {
	if a.needRT {
		pts, vals := p.aggPartPayload(a, part.rows)
		part.rt = rangetree.Build(pts, len(a.payload.terms), vals)
		p.Stats.IndexBuilds++
	}
	if a.needKD {
		p.buildAggKD(part)
		p.Stats.IndexBuilds++
	}
	if a.anyGlobal {
		p.buildAggGlobal(a, part)
		p.Stats.IndexBuilds++
	}
}

// aggPartPayload evaluates the range-tree points and flattened payload
// columns for one partition's rows, in row order.
func (p *Indexed) aggPartPayload(a *AggAnalysis, rows []int) ([]rangetree.Point, []float64) {
	xCol, yCol := axisCols(a.Axes)
	pts := make([]rangetree.Point, len(rows))
	for j, ri := range rows {
		row := p.env.Rows[ri]
		pts[j] = rangetree.Point{X: axisVal(row, xCol), Y: axisVal(row, yCol)}
	}
	return pts, p.aggPartVals(a, rows)
}

// aggPartVals evaluates only the flattened payload columns — what a
// payload-preserving Repatch needs (the points are unchanged by
// definition there).
func (p *Indexed) aggPartVals(a *AggAnalysis, rows []int) []float64 {
	w := len(a.payload.fns)
	vals := make([]float64, len(rows)*w)
	for j, ri := range rows {
		f := p.onRow(p.env.Rows[ri])
		for c, fn := range a.payload.fns {
			v := 1.0
			if fn != nil {
				v = fn(f)
				if a.payload.squared[c] {
					v *= v
				}
			}
			vals[j*w+c] = v
		}
	}
	return vals
}

// buildAggKD builds the partition's kD-tree over unit positions.
func (p *Indexed) buildAggKD(part *aggPart) {
	xc, yc, kc := p.an.posX, p.an.posY, p.prog.Schema.KeyCol()
	pts := make([]kdtree.Point, len(part.rows))
	for j, ri := range part.rows {
		row := p.env.Rows[ri]
		pts[j] = kdtree.Point{X: row[xc], Y: row[yc], Key: int64(row[kc])}
	}
	part.kd = kdtree.Build(pts)
}

// buildAggGlobal precomputes the partition's per-output global extrema.
func (p *Indexed) buildAggGlobal(a *AggAnalysis, part *aggPart) {
	kc := p.prog.Schema.KeyCol()
	part.global = make([]globalExt, len(a.Def.Outputs))
	for i, out := range a.Def.Outputs {
		if a.OutClass[i] != ClassGlobal {
			continue
		}
		ext := globalExt{}
		isMin := out.Func == ast.Min || out.Func == ast.ArgMin
		for _, ri := range part.rows {
			row := p.env.Rows[ri]
			v := a.ArgFn[i](p.onRow(row))
			k := int64(row[kc])
			if !ext.ok || (isMin && v < ext.val) || (!isMin && v > ext.val) ||
				(v == ext.val && k < ext.key) {
				ext = globalExt{val: v, key: k, ok: true}
			}
		}
		part.global[i] = ext
	}
}

// axisCols maps the analysis' range axes to the (x, y) of the 2-d indices;
// a missing axis contributes a constant 0 coordinate and ±Inf bounds.
func axisCols(axes []RangeAxis) (int, int) {
	xCol, yCol := -1, -1
	if len(axes) >= 1 {
		xCol = axes[0].Col
	}
	if len(axes) >= 2 {
		yCol = axes[1].Col
	}
	return xCol, yCol
}

func axisVal(row []float64, col int) float64 {
	if col < 0 {
		return 0
	}
	return row[col]
}

// probeRect evaluates the axis bound terms for the probe bound to f. A
// degenerate second axis (only one range attribute) keeps Y unbounded
// around the constant-0 coordinate: Inf bounds already cover it.
func probeRect(axes []RangeAxis, f *expr.Frame) geom.Rect {
	r := geom.Rect{MinX: math.Inf(-1), MinY: math.Inf(-1), MaxX: math.Inf(1), MaxY: math.Inf(1)}
	if len(axes) >= 1 {
		if fn := axes[0].LoFn; fn != nil {
			r.MinX = fn(f)
		}
		if fn := axes[0].HiFn; fn != nil {
			r.MaxX = fn(f)
		}
	}
	if len(axes) >= 2 {
		if fn := axes[1].LoFn; fn != nil {
			r.MinY = fn(f)
		}
		if fn := axes[1].HiFn; fn != nil {
			r.MaxY = fn(f)
		}
	}
	return r
}

// matchReq is one evaluated eq/neq requirement of a partition probe.
type matchReq struct {
	col int
	val float64
	neq bool
}

// evalReqs evaluates the eq conjuncts' right-hand sides for the probe
// bound to f, appending to reqs.
func evalReqs(reqs []matchReq, eqs []EqCond, f *expr.Frame) []matchReq {
	for i := range eqs {
		reqs = append(reqs, matchReq{col: eqs[i].Col, val: eqs[i].Fn(f), neq: eqs[i].Neq})
	}
	return reqs
}

// partMatches tests a partition — through any member row; every member
// agrees on the eq columns — against the evaluated requirements.
func partMatches(sample []float64, reqs []matchReq) bool {
	for _, rq := range reqs {
		if (sample[rq.col] == rq.val) == rq.neq {
			return false
		}
	}
	return true
}

// matchParts returns the partitions consistent with the eq conjuncts for
// the probe bound to f, in deterministic order, plus the set of their
// ordinals as a bitmask (ok is false when the index has more than 64
// partitions and the set does not fit). With scratch set it reuses the
// per-instance probe buffers — the result is only valid until the next
// scratch call on this view.
func (p *Indexed) matchParts(idx *aggIndex, f *expr.Frame, scratch bool) (out []*aggPart, mask uint64, ok bool) {
	var reqs []matchReq
	if scratch {
		reqs, out = p.probeReqs[:0], p.probeParts[:0]
	} else {
		reqs = make([]matchReq, 0, len(idx.a.Eqs))
	}
	reqs = evalReqs(reqs, idx.a.Eqs, f)
	for ord, part := range idx.list {
		if len(part.rows) == 0 {
			continue
		}
		if partMatches(p.env.Rows[part.rows[0]], reqs) {
			out = append(out, part)
			mask |= 1 << uint(ord&63)
		}
	}
	if scratch {
		p.probeReqs, p.probeParts = reqs, out
	}
	return out, mask, len(idx.list) <= 64
}

// fillIdentities writes the empty-set identity of every output into out,
// which must have length len(def.Outputs).
func fillIdentities(out []float64, def *ast.AggDef) []float64 {
	for i, o := range def.Outputs {
		switch o.Func {
		case ast.Min:
			out[i] = math.Inf(1)
		case ast.Max:
			out[i] = math.Inf(-1)
		case ast.ArgMin, ast.ArgMax, ast.NearestKey:
			out[i] = interp.NoKey
		case ast.NearestDist:
			out[i] = math.Inf(1)
		case ast.NearestX, ast.NearestY:
			out[i] = 0
		default:
			out[i] = 0
		}
	}
	return out
}

// EvalAgg answers one probe. Divisible outputs are O(log n) range-tree
// probes, nearest outputs are kD-tree descents, global extrema are O(1)
// lookups; MinMax-class outputs fall back to a partition scan on this
// single-probe path (the batch path in EvalAggBatch uses the sweep line).
func (p *Indexed) EvalAgg(def *ast.AggDef, unit []float64, args []float64) []float64 {
	return p.evalCore(nil, def, unit, args, false)
}

// EvalAggInto is EvalAgg writing its results into dst, which must have
// length len(def.Outputs); it returns dst. The probe runs on per-instance
// scratch buffers, so a serial caller that owns this view (each engine
// shard works on its own Fork) pays no allocation per probe. Results must
// be copied out before the next EvalAggInto call if they are retained —
// callers that keep slices across probes belong on EvalAgg.
func (p *Indexed) EvalAggInto(dst []float64, def *ast.AggDef, unit []float64, args []float64) []float64 {
	return p.evalCore(dst, def, unit, args, false)
}

// invariantAnswer is one memoised answer of a probe-invariant definition.
type invariantAnswer struct {
	def  *ast.AggDef
	mask uint64 // matched partition ordinals
	vals []float64
}

// evalCore answers one probe. A nil dst allocates fresh result (and
// internal) slices, so the return is safe to retain; a non-nil dst of
// length len(def.Outputs) receives the results in place and switches the
// probe internals to the per-instance scratch buffers — the zero-alloc
// path behind EvalAggInto.
func (p *Indexed) evalCore(dst []float64, def *ast.AggDef, unit []float64, args []float64, skipMinMax bool) []float64 {
	scratch := dst != nil
	a := p.an.Agg(def)
	if !scratch {
		dst = make([]float64, len(def.Outputs))
	}
	if !a.Indexable {
		p.Stats.ScanProbes++
		return p.scanAgg(dst, a, unit, args)
	}
	f := p.onProbe(unit, args)
	// u-only conjuncts: false ⇒ empty set ⇒ identities.
	for _, c := range a.UOnlyFn {
		if !c(f) {
			return fillIdentities(dst, def)
		}
	}
	idx := p.aggIndexFor(def)
	f = p.onProbe(unit, args) // a lazy index build rebinds the frame row by row
	parts, mask, maskOK := p.matchParts(idx, f, scratch)

	// A probe-invariant definition answers every probe that matched the
	// same partitions identically: the rectangle is unbounded whoever
	// asks, and the fold below visits the same parts in the same order.
	memo := a.ProbeInvariant && maskOK
	if memo {
		for i := range p.invariant {
			if m := &p.invariant[i]; m.def == def && m.mask == mask {
				copy(dst, m.vals)
				return dst
			}
		}
	}
	rect := probeRect(a.Axes, f)

	out := fillIdentities(dst, def)
	w := len(a.payload.terms)
	var payload []float64
	if w > 0 {
		if scratch {
			if cap(p.probePayload) < w {
				p.probePayload = make([]float64, w)
			}
			payload = p.probePayload[:w]
			for i := range payload {
				payload[i] = 0
			}
		} else {
			payload = make([]float64, w)
		}
		// w > 0 exactly when some output is divisible.
		for _, part := range parts {
			if part.rt != nil {
				part.rt.Aggregate(rect, payload)
				p.Stats.TreeProbes++
			}
		}
	}

	kc := p.prog.Schema.KeyCol()
	for i, o := range def.Outputs {
		switch a.OutClass[i] {
		case ClassDivisible:
			d := a.div[i]
			switch o.Func {
			case ast.Count:
				out[i] = payload[d.cnt]
			case ast.Sum:
				out[i] = payload[d.sum]
			case ast.Avg:
				if payload[d.cnt] > 0 {
					out[i] = payload[d.sum] / payload[d.cnt]
				}
			case ast.Stddev:
				if cnt := payload[d.cnt]; cnt > 0 {
					mean := payload[d.sum] / cnt
					variance := payload[d.sumSq]/cnt - mean*mean
					if variance < 0 {
						variance = 0
					}
					out[i] = math.Sqrt(variance)
				}
			}
		case ClassNearest:
			best := kdtree.Result{DistSq: math.Inf(1)}
			self := int64(unit[kc])
			ux, uy := unit[p.an.posX], unit[p.an.posY]
			for _, part := range parts {
				if part.kd == nil {
					continue
				}
				p.Stats.KDProbes++
				r := part.kd.Nearest(ux, uy, self, math.Inf(1))
				if r.Found && (!best.Found || r.DistSq < best.DistSq ||
					(r.DistSq == best.DistSq && r.Key < best.Key)) {
					best = r
				}
			}
			if best.Found {
				switch o.Func {
				case ast.NearestKey:
					out[i] = float64(best.Key)
				case ast.NearestX:
					out[i] = best.X
				case ast.NearestY:
					out[i] = best.Y
				default:
					out[i] = math.Sqrt(best.DistSq)
				}
			}
		case ClassGlobal:
			isMin := o.Func == ast.Min || o.Func == ast.ArgMin
			ext := globalExt{}
			for _, part := range parts {
				if i >= len(part.global) || !part.global[i].ok {
					continue
				}
				g := part.global[i]
				if !ext.ok || (isMin && g.val < ext.val) || (!isMin && g.val > ext.val) ||
					(g.val == ext.val && g.key < ext.key) {
					ext = g
				}
			}
			if ext.ok {
				switch o.Func {
				case ast.Min, ast.Max:
					out[i] = ext.val
				default:
					out[i] = float64(ext.key)
				}
			}
		case ClassMinMax:
			if !skipMinMax {
				out[i] = p.scanOutput(a, i, parts, rect, unit, args)
			}
		case ClassScan:
			out[i] = p.scanOutput(a, i, parts, rect, unit, args)
		}
	}
	if memo {
		p.invariant = append(p.invariant, invariantAnswer{def: def, mask: mask, vals: append([]float64(nil), out...)})
	}
	return out
}

// scanAgg evaluates a non-indexable definition by scanning the whole
// environment, folding every output in one pass with the interpreter's
// accumulators — interp.Naive.EvalAgg over compiled terms.
func (p *Indexed) scanAgg(dst []float64, a *AggAnalysis, unit, args []float64) []float64 {
	accs := interp.NewAggAccs(a.Def, p.prog.Schema, unit)
	f := &p.f
	f.Unit, f.Args = unit, args
	var arg expr.Num
	eval := func(ast.Term) float64 { return arg(f) }
	for _, row := range p.env.Rows {
		f.Target = row
		if a.Where != nil && !a.Where(f) {
			continue
		}
		for i, acc := range accs {
			arg = a.ArgFn[i]
			acc.Add(row, eval)
		}
	}
	for i, acc := range accs {
		dst[i] = acc.Result()
	}
	return dst
}

// scanOutput evaluates one output by scanning the matching partitions with
// the axis bounds applied — the correct fallback for outputs the indices
// cannot serve on the single-probe path. Residual conjuncts cannot exist
// here (Indexable implies none).
func (p *Indexed) scanOutput(a *AggAnalysis, outIdx int, parts []*aggPart, rect geom.Rect, unit, args []float64) float64 {
	p.Stats.ScanProbes++
	acc := interp.NewAggAccs(a.Def, p.prog.Schema, unit)[outIdx]
	xCol, yCol := axisCols(a.Axes)
	f := &p.f
	f.Unit, f.Args = unit, args
	arg := a.ArgFn[outIdx]
	eval := func(ast.Term) float64 { return arg(f) }
	for _, part := range parts {
		for _, ri := range part.rows {
			row := p.env.Rows[ri]
			x, y := axisVal(row, xCol), axisVal(row, yCol)
			if x < rect.MinX || x > rect.MaxX || y < rect.MinY || y > rect.MaxY {
				continue
			}
			f.Target = row
			acc.Add(row, eval)
		}
	}
	return acc.Result()
}

// ---------------------------------------------------------------------------
// Batch evaluation (sweep line for MIN/MAX)

// EvalAggBatch answers the same probe for many units at once. Divisible,
// nearest and global outputs delegate to the per-probe path (already
// O(log n) each); MinMax-class outputs are batched through the sweep line
// of Section 5.3.1, grouping probes by their constant window height.
func (p *Indexed) EvalAggBatch(def *ast.AggDef, units [][]float64, args [][]float64) [][]float64 {
	a := p.an.Agg(def)
	results := make([][]float64, len(units))
	sweep := p.BatchBeneficial(def)
	for i := range units {
		var arg []float64
		if args != nil {
			arg = args[i]
		}
		// With a sweep to follow, MinMax outputs stay at their identities
		// for it to overwrite.
		results[i] = p.evalCore(nil, def, units[i], arg, sweep)
	}
	if sweep {
		p.argFold = nil
		p.evalMinMaxBatch(a, units, args, results)
	}
	return results
}

// BatchBeneficial reports whether EvalAggBatch answers def with a
// genuinely set-at-a-time algorithm: an indexable definition with at
// least one MIN/MAX-class output, where the whole probe set is sorted
// and swept in one pass. For every other definition EvalAggBatch is a
// loop over EvalAgg, so per-row (streaming) evaluation is bit-identical
// and batching buys nothing. Streaming callers use this to decide where
// a pipeline must block and collect its probe set; because each probe's
// sweep answer depends only on the indexed point set — never on the
// other probes — the guard-filtered (pushed-down) probe sets the
// streaming executor produces return exactly the values a full batch
// would.
func (p *Indexed) BatchBeneficial(def *ast.AggDef) bool {
	a := p.an.Agg(def)
	if !a.Indexable {
		return false
	}
	for i := range def.Outputs {
		if a.OutClass[i] == ClassMinMax {
			return true
		}
	}
	return false
}

type sweepGroup struct {
	height float64
	probes []sweepline.Probe
	rowIdx []int // result row per probe
}

// evalMinMaxBatch fills the MinMax-class outputs of results via sweeps.
func (p *Indexed) evalMinMaxBatch(a *AggAnalysis, units [][]float64, args [][]float64, results [][]float64) {
	def := a.Def
	idx := p.aggIndexFor(def)
	kc := p.prog.Schema.KeyCol()

	// Partition probes: each probe goes to the partitions its eq conjuncts
	// select. Group by (partition, window height). To keep the grouping
	// tractable we group first by height, then sweep each matching
	// partition with the group's probes filtered per-partition.
	type probeInfo struct {
		row    int
		rect   geom.Rect
		parts  []*aggPart
		active bool
	}
	infos := make([]probeInfo, len(units))
probes:
	for i, unit := range units {
		var arg []float64
		if args != nil {
			arg = args[i]
		}
		f := p.onProbe(unit, arg)
		for _, c := range a.UOnlyFn {
			if !c(f) {
				continue probes
			}
		}
		rect := probeRect(a.Axes, f)
		parts, _, _ := p.matchParts(idx, f, false)
		infos[i] = probeInfo{row: i, rect: rect, parts: parts, active: true}
	}

	xCol, yCol := axisCols(a.Axes)
	for outIdx, o := range def.Outputs {
		if a.OutClass[outIdx] != ClassMinMax {
			continue
		}
		op := segtree.Min
		if o.Func == ast.Max || o.Func == ast.ArgMax {
			op = segtree.Max
		}
		// Group (partition, height) → probes.
		type groupKey struct {
			part   *aggPart
			height float64
		}
		groups := map[groupKey]*sweepGroup{}
		var order []groupKey
		for i := range infos {
			if !infos[i].active {
				continue
			}
			_, ryHalf := centerHalf(infos[i].rect.MinY, infos[i].rect.MaxY)
			h := 2 * ryHalf
			for _, part := range infos[i].parts {
				gk := groupKey{part, h}
				g := groups[gk]
				if g == nil {
					g = &sweepGroup{height: h}
					groups[gk] = g
					order = append(order, gk)
				}
				cx, rx := centerHalf(infos[i].rect.MinX, infos[i].rect.MaxX)
				cy, _ := centerHalf(infos[i].rect.MinY, infos[i].rect.MaxY)
				g.probes = append(g.probes, sweepline.Probe{
					X: cx, Y: cy, RX: rx,
					Exclude: sweepline.NoExclude,
				})
				g.rowIdx = append(g.rowIdx, infos[i].row)
			}
		}

		for _, gk := range order {
			g := groups[gk]
			part := gk.part
			pts := make([]sweepline.Point, len(part.rows))
			for j, ri := range part.rows {
				row := p.env.Rows[ri]
				pts[j] = sweepline.Point{
					X:     axisVal(row, xCol),
					Y:     axisVal(row, yCol),
					Value: a.ArgFn[outIdx](p.onRow(row)),
					Key:   int64(row[kc]),
				}
			}
			p.Stats.Sweeps++
			ry := g.height / 2
			if math.IsInf(g.height, 1) {
				ry = math.Inf(1)
			}
			res := sweepline.Sweep(pts, g.probes, ry, op)
			for j, r := range res {
				ri := g.rowIdx[j]
				cur := results[ri][outIdx]
				switch o.Func {
				case ast.Min:
					if r.Found && r.Value < cur {
						results[ri][outIdx] = r.Value
					}
				case ast.Max:
					if r.Found && r.Value > cur {
						results[ri][outIdx] = r.Value
					}
				case ast.ArgMin, ast.ArgMax:
					// Fold arg-extrema across partitions: track via a
					// shadow value array.
					p.foldArg(results, ri, outIdx, r, o.Func)
				}
			}
		}
	}
}

// foldArg folds an arg-extremum sweep result into the running answer. The
// running value is stored as the key; to compare across partitions we keep
// the winning value in a side map keyed by (row, out).
type argState struct {
	val float64
	key int64
	ok  bool
}

func (p *Indexed) foldArg(results [][]float64, row, out int, r sweepline.Result, f ast.AggFunc) {
	if !r.Found {
		return
	}
	if p.argFold == nil {
		p.argFold = map[[2]int]argState{}
	}
	k := [2]int{row, out}
	cur, ok := p.argFold[k]
	isMin := f == ast.ArgMin
	better := !ok ||
		(isMin && r.Value < cur.val) || (!isMin && r.Value > cur.val) ||
		(r.Value == cur.val && r.Key < cur.key)
	if better {
		p.argFold[k] = argState{val: r.Value, key: r.Key, ok: true}
		results[row][out] = float64(r.Key)
	}
}

// ---------------------------------------------------------------------------
// Action target selection

type actIndex struct {
	a     *ActAnalysis
	parts map[string]*actPart
	order []string
	list  []*actPart // parts[order[i]]
	// rowPart mirrors aggIndex.rowPart for maintenance.
	rowPart []int32
}

// finish mirrors aggIndex.finish.
func (idx *actIndex) finish(n int) {
	idx.list = make([]*actPart, len(idx.order))
	idx.rowPart = makeRowPart(n)
	for ord, key := range idx.order {
		part := idx.parts[key]
		idx.list[ord] = part
		for _, ri := range part.rows {
			idx.rowPart[ri] = int32(ord)
		}
	}
}

type actPart struct {
	rows []int
	rt   *rangetree.Tree
}

func (p *Indexed) actIndexFor(def *ast.ActDef) *actIndex {
	if idx, ok := p.actIdx[def]; ok {
		return idx
	}
	p.guardLazyBuild("action index")
	a := p.an.Act(def)
	idx := &actIndex{a: a, parts: map[string]*actPart{}}
	for i, row := range p.env.Rows {
		if !p.passesEOnly(a.EOnlyFn, row) {
			continue
		}
		key := p.partitionKey(row, a.eqCols)
		part := idx.parts[string(key)]
		if part == nil {
			k := string(key)
			part = &actPart{}
			idx.parts[k] = part
			idx.order = append(idx.order, k)
		}
		part.rows = append(part.rows, i)
	}
	idx.finish(p.env.Len())
	for _, part := range idx.list {
		p.buildActPart(a, part)
	}
	p.actIdx[def] = idx
	return idx
}

// buildActPart (re)builds one partition's spatial tree from the current
// environment rows.
func (p *Indexed) buildActPart(a *ActAnalysis, part *actPart) {
	xCol, yCol := axisCols(a.Axes)
	pts := make([]rangetree.Point, len(part.rows))
	for j, ri := range part.rows {
		row := p.env.Rows[ri]
		pts[j] = rangetree.Point{X: axisVal(row, xCol), Y: axisVal(row, yCol)}
	}
	part.rt = rangetree.Build(pts, 0, nil)
	p.Stats.IndexBuilds++
}

func (p *Indexed) keyLookup() map[int64]int {
	if p.keyIndex == nil {
		p.guardLazyBuild("key lookup")
		p.keyIndex = make(map[int64]int, p.env.Len())
		kc := p.prog.Schema.KeyCol()
		for i, row := range p.env.Rows {
			p.keyIndex[int64(row[kc])] = i
		}
	}
	return p.keyIndex
}

// RowByKey resolves an environment row through the key index in O(1).
// On a frozen provider (or a fork of one) the index already exists and
// the call is read-only, so concurrent readers may share it.
func (p *Indexed) RowByKey(key int64) ([]float64, bool) {
	ri, ok := p.keyLookup()[key]
	if !ok {
		return nil, false
	}
	return p.env.Rows[ri], true
}

// SelectTargets visits the action's targets using the classified strategy:
// key lookups are O(1), area actions are O(log n + k) range-tree reports,
// everything else scans (matching the naive provider exactly).
func (p *Indexed) SelectTargets(def *ast.ActDef, unit []float64, args []float64, visit func([]float64)) {
	a := p.an.Act(def)
	f := p.onProbe(unit, args)
	for _, c := range a.UOnlyFn {
		if !c(f) {
			return
		}
	}
	switch a.Class {
	case ActByKey:
		keyVal := a.KeyFn(f)
		if ri, ok := p.keyLookup()[int64(keyVal)]; ok {
			row := p.env.Rows[ri]
			if float64(int64(keyVal)) == row[p.prog.Schema.KeyCol()] {
				// Verify the full WHERE clause on the one candidate: the
				// classifier only guarantees the key conjunct.
				f.Target = row
				if a.Where(f) {
					visit(row)
				}
			}
		}
	case ActArea:
		idx := p.actIndexFor(def)
		f = p.onProbe(unit, args) // a lazy index build rebinds the frame row by row
		rect := probeRect(a.Axes, f)
		reqs := evalReqs(p.probeReqs[:0], a.Eqs, f)
		p.probeReqs = reqs
		for _, part := range idx.list {
			if len(part.rows) == 0 || !partMatches(p.env.Rows[part.rows[0]], reqs) {
				continue
			}
			part.rt.Report(rect, func(j int) {
				visit(p.env.Rows[part.rows[j]])
			})
		}
	default:
		p.Stats.ScanProbes++
		for _, row := range p.env.Rows {
			// Rebound every row: visit may evaluate on this view's frame.
			f.Unit, f.Args, f.Target = unit, args, row
			if a.Where == nil || a.Where(f) {
				visit(row)
			}
		}
	}
}

// centerHalf converts an interval to (center, half-extent). A doubly
// unbounded interval maps to (0, +Inf) — which is only produced for an
// absent index axis, where every point carries the constant coordinate 0.
func centerHalf(lo, hi float64) (float64, float64) {
	if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
		return 0, math.Inf(1)
	}
	return (lo + hi) / 2, (hi - lo) / 2
}
