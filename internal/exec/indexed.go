package exec

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/kdtree"
	"github.com/epicscale/sgl/internal/index/ordmap"
	"github.com/epicscale/sgl/internal/index/rangetree"
	"github.com/epicscale/sgl/internal/index/sorted"
	"github.com/epicscale/sgl/internal/index/sweepline"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Indexed is the paper's optimized aggregate query evaluator (Section 5.3):
// per-tick index structures — layered range trees for divisible
// aggregates, kD-trees for nearest-neighbour, sweep lines for MIN/MAX —
// built over categorical partitions of E and probed per unit, one set per
// membership group (membership.go), whichever definitions share it.
//
// Construct one Indexed per tick; a group's partitions are scanned on the
// first probe of any of its definitions and each structure is built on
// the first probe that reads it (the paper's two index-building phases
// fall out of this: decision-phase aggregates trigger builds before
// probing, action-phase structures are built when actions run). Indexed
// serves both engine modes — over a NewScanAnalyzer every probe is a
// scan — and must agree exactly with the interp.Naive walker, the
// independent oracle; the differential tests in this package enforce
// that.
//
// An Indexed is not safe for concurrent use: index builds and the Stats
// counters mutate shared maps. For parallel tick execution, call Freeze
// once to build every index the program can use, then give each worker its
// own Fork — a view that shares the frozen read-only indexes but owns its
// Stats and scratch.
type Indexed struct {
	prog *sem.Program
	an   *Analyzer
	env  *table.Table

	// f is the frame every compiled definition term of this view
	// evaluates against: rebound per probe, never shared between views
	// (Fork copies it by value), carrying the tick's random source.
	f expr.Frame

	// keyIndex maps a unit key to its row: ActByKey target selection
	// reads it. Built on first use (or seeded), never written after.
	keyIndex *ordmap.Map

	// pos is the environment's (posx, posy) column in row order, when the
	// caller keeps one (SeedPositions): points on the position axes are
	// read from it instead of gathered from rows. nil for none.
	pos []geom.Point

	// groups holds this tick's index of each membership group, by group
	// ordinal: nil until the group's rows are first scanned. spare holds
	// the group indexes of a retired provider (Recycle) until this tick
	// scans that group: the scan then reuses the retired index — partition
	// table, row lists, and every structure's storage, which the builds
	// overwrite — instead of allocating a new one.
	groups []*groupIndex
	spare  []*groupIndex

	// frozen is set by Freeze: every index the program can demand exists
	// and the shared state is read-only from here on. forked marks a view
	// returned by Fork; a fork must never build an index lazily (that
	// would race with sibling forks), so the lazy builders panic on one.
	frozen bool
	forked bool
	// unbuilt is set by FreezeUnbuilt: the one definition this provider
	// answers, whose group has its membership and no structure; probes
	// evaluate one-shot (see evalCore).
	unbuilt *ast.AggDef

	// changed is what MaintainFrom learned of the tick's delta, for
	// Carries. inherited is set once a predecessor's storage was taken
	// over (inherit).
	changed   changes
	inherited bool

	// certs holds, per certifiable nearest definition (AggAnalysis.cert)
	// and env row, what certifies that row's answer next tick
	// (certify.go); passed from provider to provider like changed, and
	// shared by forks, each of which writes only its shard's rows.
	// tracking is set while maintenance rebuilds kD-trees, whose motion
	// it then records.
	certs    [][]nearCert
	tracking bool

	scratch

	// Stats counts index builds and probes for the benchmark reports.
	Stats Stats
}

// scratch is what one view writes while it builds and probes, none of it
// index state: every view starts with its own (empty) one, so sibling
// views never share a backing array, and a provider inherits its retired
// predecessor's (Recycle) so a steady tick allocates none of it again.
type scratch struct {
	// probeReqs, probeParts and probePayload are every probe's working
	// memory (matchParts, evalCore): what a probe hands back is its
	// results alone, in storage its caller owns. No probe runs inside
	// another on one view — sem admits no aggregate call inside a
	// definition, so no WHERE, payload or SET closure probes.
	probeReqs    []matchReq
	probeParts   []*part
	probePayload []float64

	// fates and arrivals are maintenance's working memory (classifyDirty).
	fates    []partFate
	arrivals []arrival

	// invariant memoises the answers of probe-invariant definitions
	// (AggAnalysis.ProbeInvariant) per matched partition set, for the
	// lifetime of this view — one tick. A handful of entries (definitions
	// × partition sets), searched linearly.
	invariant []invariantAnswer

	// keyBuf is partition-key scratch; pts, vals, kdPts and sites are the
	// inputs of one partition's structure builds (or one-shot evaluations),
	// none of which retains them; once is the one-shot range aggregate's
	// working memory, and fold a one-shot fold's.
	keyBuf []byte
	pts    []rangetree.Point
	vals   []float64
	kdPts  []kdtree.Point
	sites  []sweepline.Site
	once   rangetree.Scratch
	fold   []float64

	batch batchScratch
}

// Stats counts the work the indexed evaluator performed in one tick.
type Stats struct {
	// IndexBuilds counts per-partition structure builds: range trees,
	// folds, kD-trees, extrema (not sweep orderings: sweepClass).
	IndexBuilds int
	// IndexReuses counts structures carried over unchanged from the
	// previous tick by MaintainFrom, and IndexPatches counts range trees
	// and folds whose payload sums were recomputed in place (shape
	// reused). MaintainFallbacks counts definitions MaintainFrom left
	// reading a structure rebuilt from scratch, its relevant dirty
	// fraction past the threshold.
	IndexReuses       int
	IndexPatches      int
	MaintainFallbacks int
	// TreeProbes counts range-tree probes, a read of a fold (the root of
	// the tree no axes would build) included, KDProbes kD-tree searches
	// and ExtProbes reads of a built extremum, each per partition.
	TreeProbes int
	KDProbes   int
	ExtProbes  int
	Sweeps     int
	// ScanProbes counts whole-environment scans (a definition or action
	// no index serves), PartScans the scans of one output over its
	// matched partitions (an output its class cannot serve).
	ScanProbes int
	PartScans  int
	// TreeOnce, FoldOnce, KDOnce and ExtOnce count one-shot evaluations
	// of an unbuilt range tree, fold, kD-tree and extremum, per
	// partition: how a read view answers.
	TreeOnce int
	FoldOnce int
	KDOnce   int
	ExtOnce  int
	// CarriedAnswers counts aggregate answers taken over from the previous
	// tick instead of probed (Carries), and CertifiedAnswers nearest
	// answers taken from the previous tick's winner under a separation
	// certificate instead of searched (certify).
	CarriedAnswers   int
	CertifiedAnswers int
	// ResortedPoints counts the points of range-tree and sweep rebuilds
	// whose sorts started from the structure's previous order,
	// ResortMoves the element moves of those sorts, and ResortFallbacks
	// those that spent their move budget and finished with a full sort
	// (sorted.Resort).
	ResortedPoints  int
	ResortMoves     int
	ResortFallbacks int
	// BoundSteps counts the comparisons range-tree probes made to find
	// their bounds (sorted.Guide).
	BoundSteps int
}

// AddResort counts one rebuild's re-sort work.
func (s *Stats) AddResort(w sorted.Work) {
	s.ResortedPoints += w.Points
	s.ResortMoves += w.Moved
	s.ResortFallbacks += w.Fallbacks
}

var _ interp.Provider = (*Indexed)(nil)

// NewIndexed returns an indexed provider for one tick. The analyzer is
// shared across ticks (classification is per-program).
func NewIndexed(an *Analyzer, env *table.Table, r rng.TickSource) *Indexed {
	return &Indexed{
		prog: an.prog, an: an, env: env,
		f:      expr.Frame{R: r},
		groups: make([]*groupIndex, len(an.groups)),
	}
}

// SeedKeyIndex installs a prebuilt key → row-index table (over the same
// environment snapshot) so Freeze does not rebuild one the caller already
// has. The provider only reads it. Ignored if a lookup was already built.
func (p *Indexed) SeedKeyIndex(idx *ordmap.Map) {
	if p.keyIndex == nil {
		p.keyIndex = idx
	}
}

// SeedPositions installs the environment's (posx, posy) column — pos[i]
// holds row i's two position values, bit for bit — so range-tree points
// on the position axes come from it rather than from a gather over the
// rows: a partition of every row reads it as it stands, any other
// indexes it. The column is only read. Ignored when the schema lacks a
// position column.
func (p *Indexed) SeedPositions(pos []geom.Point) {
	if len(pos) != p.env.Len() {
		panic("exec: position column length does not match the environment")
	}
	if p.an.posX >= 0 && p.an.posY >= 0 {
		p.pos = pos
	}
}

// Recycle hands p the index storage and scratch of prev, a provider whose
// tick is over: every group p has not scanned yet will be rebuilt into
// prev's index for it — same partitions matched by key, every structure
// overwritten in place — so a world whose population is steady rebuilds
// its indexes without allocating. What is recycled is capacity, never
// content: the result of a build is a pure function of the current rows,
// whatever the storage held.
//
// Recycle takes ownership of prev, which must not be probed afterwards and
// must be a provider nobody else can still read — the engine's own tick
// provider, never one published to readers. It composes with MaintainFrom
// (call it second): groups maintenance installed keep their structures,
// the rest of prev — the groups it scanned and the ones it inherited and
// never claimed — becomes rebuild storage.
func (p *Indexed) Recycle(prev *Indexed) {
	if prev == nil || prev.an != p.an {
		return
	}
	spare := prev.spare
	if spare == nil {
		spare = make([]*groupIndex, len(prev.groups))
	}
	for ord, idx := range prev.groups {
		if idx != nil {
			spare[ord] = idx // prev scanned it: prev.spare[ord] is nil
		}
		if p.groups[ord] != nil {
			spare[ord] = nil // maintained: its partitions live on in p
		}
	}
	p.spare = spare
	p.inherit(prev)
	prev.groups, prev.spare = nil, nil
}

// inherit takes over prev's scratch, change masks and certificates,
// leaving prev none, the first time MaintainFrom or Recycle hands p a
// predecessor: the structures maintenance rebuilds write into inherited
// scratch, and so does the rest of the tick.
func (p *Indexed) inherit(prev *Indexed) {
	if p.inherited {
		return
	}
	p.inherited = true
	p.scratch, prev.scratch = prev.scratch, scratch{}
	p.invariant = p.invariant[:0] // answers of prev's tick
	p.changed, prev.changed = prev.changed, changes{}
	p.changed.ok = false
	p.certs, prev.certs = prev.certs, nil
	p.sizeCerts()
}

// Freeze eagerly builds every index structure the program can demand this
// tick: the key lookup table and every structure of every membership
// group. After Freeze the provider's shared state is only ever read, so
// Forked views may probe it from concurrent goroutines. Build work lands
// on the receiver's Stats.
//
// Eagerness is the price of lock-free sharing: a provider probed lazily
// by one goroutine skips structures a tick never probes, so a frozen
// provider may build more indexes (and report higher Stats.IndexBuilds)
// than a one-shard tick over the same environment. Game outcomes are
// unaffected. Kept only because bench/ compiles against it.
func (p *Indexed) Freeze() { p.FreezeParallel(1) }

// FreezeParallel is Freeze with the structure builds spread over up to
// workers goroutines. The membership scans — one pass over the rows per
// membership group — stay on the caller's goroutine; what fans out is the
// (group, partition) build units, each of which reads the shared rows and
// writes only its own partition's structures, on a private view (own
// frame, own build scratch, own Stats). Every unit's result is a pure
// function of its partition's rows, so which worker builds it changes
// nothing, and the per-view Stats are integer counts summed after the
// barrier: the frozen provider — structures and Stats — is identical at
// any workers. A panic in a build unit is re-raised on the caller after
// the barrier, the lowest panicking unit's value first.
func (p *Indexed) FreezeParallel(workers int) {
	p.keyLookup()
	p.sizeCerts()
	var units []buildUnit
	for _, g := range p.an.groups {
		idx := p.groups[g.ord]
		if idx == nil {
			idx = p.scanGroup(g)
		}
		if miss := g.all() &^ idx.built; miss != 0 {
			for _, pt := range idx.list {
				units = append(units, buildUnit{g: g, part: pt, slots: miss})
			}
			idx.built |= miss
		}
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for _, u := range units {
			p.refresh(u.g, u.part, slotOps{build: u.slots})
		}
	} else {
		views := make([]*Indexed, workers)
		panics := make([]any, len(units))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range views {
			v := p.view()
			views[w] = v
			wg.Add(1)
			go func() {
				defer wg.Done()
				u := next.Add(1) - 1
				defer func() {
					if r := recover(); r != nil {
						panics[u] = r
					}
				}()
				for ; u < int64(len(units)); u = next.Add(1) - 1 {
					v.refresh(units[u].g, units[u].part, slotOps{build: units[u].slots})
				}
			}()
		}
		wg.Wait()
		for _, r := range panics {
			if r != nil {
				panic(r)
			}
		}
		for _, v := range views {
			p.Stats.Add(v.Stats)
		}
	}
	p.frozen = true
}

// buildUnit is the missing structures of one partition of one group — the
// grain FreezeParallel distributes.
type buildUnit struct {
	g     *membership
	part  *part
	slots slotMask
}

// FreezeUnbuilt freezes a provider that will only ever be asked def — an
// observation query's entry point — without building anything: def's
// membership is scanned (which rows pass its e-only filter, grouped into
// partitions), no structure is built over it and no key lookup table.
// Forks answer EvalAgg one-shot, each probe evaluated directly against
// the matching partitions' rows, bit-identically to a fork of a Freeze'd
// provider over the same rows (TestUnbuiltMatchesFrozen): the choice for
// a row set that will see too few probes to repay its indexes. A fork
// asked any other definition panics like any lazy build on a fork.
//
// Nothing maintains, recycles or rebuilds such a provider, so its
// membership is the lean kind (scanMembers): no row → partition map, and
// a membership of every row taken from the shared identity rows without
// a scan.
func (p *Indexed) FreezeUnbuilt(def *ast.AggDef) {
	p.unbuilt, p.frozen = def, true
	if a := p.an.Agg(def); a.Indexable && p.groups[a.group.ord] == nil {
		p.scanGroup(a.group)
	}
}

// view returns a copy of p that shares its indexes and environment but
// owns its frame, scratch and Stats.
func (p *Indexed) view() *Indexed {
	c := *p
	c.Stats = Stats{}
	c.scratch = scratch{}
	return &c
}

// Fork returns a worker-private view of a frozen provider: it shares the
// immutable per-tick indexes (and the environment snapshot) with the
// receiver but owns its Stats counters and scratch state. Fork without a
// prior Freeze is unsafe — a lazy index build in one fork would race with
// reads in another — and panics rather than racing silently.
func (p *Indexed) Fork() *Indexed {
	if !p.frozen {
		panic("exec: Fork before Freeze — forked views share index state and must not build lazily")
	}
	c := p.view()
	c.forked = true
	return c
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
	s.ExtProbes += o.ExtProbes
	s.Sweeps += o.Sweeps
	s.ScanProbes += o.ScanProbes
	s.PartScans += o.PartScans
	s.TreeOnce += o.TreeOnce
	s.FoldOnce += o.FoldOnce
	s.KDOnce += o.KDOnce
	s.ExtOnce += o.ExtOnce
	s.CarriedAnswers += o.CarriedAnswers
	s.CertifiedAnswers += o.CertifiedAnswers
	s.ResortedPoints += o.ResortedPoints
	s.ResortMoves += o.ResortMoves
	s.ResortFallbacks += o.ResortFallbacks
	s.BoundSteps += o.BoundSteps
}

// Since returns the counts s gained since it read o.
func (s Stats) Since(o Stats) Stats {
	return Stats{
		IndexBuilds:       s.IndexBuilds - o.IndexBuilds,
		IndexReuses:       s.IndexReuses - o.IndexReuses,
		IndexPatches:      s.IndexPatches - o.IndexPatches,
		MaintainFallbacks: s.MaintainFallbacks - o.MaintainFallbacks,
		TreeProbes:        s.TreeProbes - o.TreeProbes,
		KDProbes:          s.KDProbes - o.KDProbes,
		ExtProbes:         s.ExtProbes - o.ExtProbes,
		Sweeps:            s.Sweeps - o.Sweeps,
		ScanProbes:        s.ScanProbes - o.ScanProbes,
		PartScans:         s.PartScans - o.PartScans,
		TreeOnce:          s.TreeOnce - o.TreeOnce,
		FoldOnce:          s.FoldOnce - o.FoldOnce,
		KDOnce:            s.KDOnce - o.KDOnce,
		ExtOnce:           s.ExtOnce - o.ExtOnce,
		CarriedAnswers:    s.CarriedAnswers - o.CarriedAnswers,
		CertifiedAnswers:  s.CertifiedAnswers - o.CertifiedAnswers,
		ResortedPoints:    s.ResortedPoints - o.ResortedPoints,
		ResortMoves:       s.ResortMoves - o.ResortMoves,
		ResortFallbacks:   s.ResortFallbacks - o.ResortFallbacks,
		BoundSteps:        s.BoundSteps - o.BoundSteps,
	}
}

// ---------------------------------------------------------------------------
// Per-group partitions and structures

// partIndex is the categorical partitioning of the environment for one
// membership group: the rows that pass its e-only filter, grouped by the
// values of its partition columns.
type partIndex struct {
	parts map[string]*part
	// list holds the partitions in their deterministic iteration order,
	// ascending first member row (the scan's first-appearance order), so
	// probes never hash a key.
	list []*part
	// rowPart maps every environment row to its partition ordinal in
	// list, or -1 when the e-only filter excludes it. MaintainFrom uses
	// it to find the partition a dirty row used to live in, so only a
	// provider it may maintain fills it: an unbuilt one leaves it nil.
	rowPart []int32
}

// groupIndex is one membership group's partitions for one tick and the
// set of its slots built over them so far.
type groupIndex struct {
	built slotMask
	partIndex
}

// part is one partition: its member rows and the group's structures over
// them, each valid when its slot is in the group index's built set. A part
// owns its structures' storage for as long as the index it belongs to is
// rebuilt or maintained — a rebuild overwrites them in place.
type part struct {
	key  string // partition key, as in partIndex.parts
	ord  int32  // position in partIndex.list
	rows []int  // env row indexes, ascending
	// trees and sweeps are by surface (surface.at); each structure is
	// its class's (classes.go).
	trees  []rangetree.Tree
	sweeps []sweepline.Order
	fold   []float64 // the fold's payload sums over rows, in row order
	kd     kdtree.Tree
	ext    []globalExt // by group extremum
	// kdPrev holds the points kd was last built over, in row order, and
	// motion how they moved at this tick's maintenance (certify.go).
	kdPrev []kdtree.Point
	motion motion
}

// finish derives the parts' ordinals from list, and with rowPart set the
// row → partition-ordinal map over n rows (called after membership is
// final).
func (idx *partIndex) finish(n int, rowPart bool) {
	for ord, pt := range idx.list {
		pt.ord = int32(ord)
	}
	if !rowPart {
		return
	}
	if cap(idx.rowPart) < n {
		idx.rowPart = make([]int32, n)
	}
	idx.rowPart = idx.rowPart[:n]
	for i := range idx.rowPart {
		idx.rowPart[i] = -1
	}
	for _, pt := range idx.list {
		for _, ri := range pt.rows {
			idx.rowPart[ri] = pt.ord
		}
	}
}

// scanMembers (re)partitions the environment: rows passing the e-only
// conjuncts, grouped by their values in cols, partitions ordered by first
// member row. Partitions an earlier scan left in idx keep their part —
// and with it the structures the coming build will overwrite — when their
// key still has members, and are dropped when it has none.
//
// An unbuilt provider's membership is leaner, since nothing will maintain
// it: rowPart is never filled, and a group with no e-only conjunct and no
// partition column — one partition of every row, what the scan returns
// when every row passes and every key is empty — gets that partition
// without a scan, its row list a prefix of the shared identity rows (an
// unbuilt provider scans once, so no earlier partition is left to drop).
func (p *Indexed) scanMembers(idx *partIndex, eonly []expr.Cond, cols []int) {
	n, lean := p.env.Len(), p.unbuilt != nil
	if idx.parts == nil {
		idx.parts = map[string]*part{}
	}
	clear(idx.list)
	idx.list = idx.list[:0]
	//sgl:unordered each part is emptied independently
	for _, pt := range idx.parts {
		pt.rows = pt.rows[:0]
	}
	if lean && len(eonly) == 0 && len(cols) == 0 {
		if n > 0 {
			pt := &part{rows: identityRows(n)}
			idx.parts[""] = pt
			idx.list = append(idx.list, pt)
		}
		idx.finish(n, false)
		return
	}
	var pt *part // the previous member's partition: neighbours mostly share one
	for i, row := range p.env.Rows {
		if !p.passesEOnly(eonly, row) {
			continue
		}
		if key := p.partitionKey(row, cols); pt == nil || pt.key != string(key) {
			if pt = idx.parts[string(key)]; pt == nil {
				pt = &part{key: string(key)}
				idx.parts[pt.key] = pt
			}
		}
		if len(pt.rows) == 0 {
			idx.list = append(idx.list, pt)
		}
		pt.rows = append(pt.rows, i)
	}
	if len(idx.list) < len(idx.parts) {
		//sgl:unordered deletes exactly the memberless parts, in any order
		for key, pt := range idx.parts {
			if len(pt.rows) == 0 {
				delete(idx.parts, key)
			}
		}
	}
	idx.finish(n, !lean)
}

// identity holds 0, 1, 2, …: the row list of every unbuilt provider's
// partition of all rows is a prefix of it, so that membership costs no
// allocation. It only ever grows, and by replacement: a published slice
// is never written again, and the prefixes handed out have no spare
// capacity for an append to write into. Its contents are a function of
// its length alone, so no caller can see another's use of it.
var identity atomic.Pointer[[]int]

// identityRows returns the row list 0, 1, …, n−1 from the shared identity
// rows, growing them first when they are shorter.
func identityRows(n int) []int {
	var grown *[]int
	for {
		old := identity.Load()
		if old != nil && len(*old) >= n {
			return (*old)[:n:n]
		}
		if grown == nil {
			s := make([]int, n+n/4)
			for i := range s {
				s[i] = i
			}
			grown = &s
		}
		if identity.CompareAndSwap(old, grown) {
			return (*grown)[:n:n]
		}
	}
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
		if !slices.Contains(cols, eq.Col) {
			cols = append(cols, eq.Col)
		}
	}
	slices.Sort(cols)
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

// groupFor returns this tick's index of g with at least the slots in need
// built over it: the group's rows are scanned on its first use, and each
// structure is built on the first use that needs it.
func (p *Indexed) groupFor(g *membership, need slotMask) *groupIndex {
	idx := p.groups[g.ord]
	if idx == nil {
		p.guardLazyBuild("membership")
		idx = p.scanGroup(g)
	}
	if miss := need &^ idx.built; miss != 0 {
		p.guardLazyBuild("index")
		for _, pt := range idx.list {
			p.refresh(g, pt, slotOps{build: miss})
		}
		idx.built |= miss
	}
	return idx
}

// scanGroup installs the group's index with its membership final and no
// structure built yet: a recycled index when the provider holds one for
// the group, a new one otherwise.
func (p *Indexed) scanGroup(g *membership) *groupIndex {
	var idx *groupIndex
	if p.spare != nil {
		idx, p.spare[g.ord] = p.spare[g.ord], nil
	}
	if idx == nil {
		idx = &groupIndex{}
	}
	idx.built = 0
	p.scanMembers(&idx.partIndex, g.eonly, g.cols)
	p.groups[g.ord] = idx
	return idx
}

// sized returns s with length n, keeping it (and its elements' storage)
// when it already has that length.
func sized[T any](s []T, n int) []T {
	if len(s) != n {
		return make([]T, n)
	}
	return s
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

// matchParts returns the partitions of idx consistent with the eq
// conjuncts for the probe bound to f, in partition order, in the view's
// scratch (valid until its next match), and the set of their ordinals as
// a bitmask (ok is false when the index has more than 64 partitions and
// the set does not fit). A partition is tested through any member row:
// every member agrees on the eq columns.
func (p *Indexed) matchParts(idx *groupIndex, eqs []EqCond, f *expr.Frame) (parts []*part, mask uint64, ok bool) {
	reqs := p.probeReqs[:0]
	for i := range eqs {
		reqs = append(reqs, matchReq{col: eqs[i].Col, val: eqs[i].Fn(f), neq: eqs[i].Neq})
	}
	parts = p.probeParts[:0]
next:
	for ord, pt := range idx.list {
		if len(pt.rows) == 0 {
			continue
		}
		sample := p.env.Rows[pt.rows[0]]
		for _, rq := range reqs {
			if (sample[rq.col] == rq.val) == rq.neq {
				continue next
			}
		}
		parts = append(parts, pt)
		mask |= 1 << uint(ord&63)
	}
	p.probeReqs, p.probeParts = reqs, parts
	return parts, mask, len(idx.list) <= 64
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
// The result is newly allocated; the probe itself runs on the view's
// scratch.
func (p *Indexed) EvalAgg(def *ast.AggDef, unit []float64, args []float64) []float64 {
	return p.evalCore(make([]float64, len(def.Outputs)), def, -1, unit, args, false)
}

// EvalAggRow is EvalAgg writing its results into dst, which must have
// length len(def.Outputs), for the probe of env row row (-1: unit is no
// row); it returns dst. A nearest answer's search also records what
// certifies it next tick (Carries).
func (p *Indexed) EvalAggRow(dst []float64, def *ast.AggDef, row int, unit []float64, args []float64) []float64 {
	return p.evalCore(dst, def, row, unit, args, false)
}

// invariantAnswer is one memoised answer of a probe-invariant definition.
type invariantAnswer struct {
	def  *ast.AggDef
	mask uint64 // matched partition ordinals
	vals []float64
}

// evalCore answers one probe, of env row row when row >= 0, into dst
// (length len(def.Outputs)), each output from its class (classes.go).
func (p *Indexed) evalCore(dst []float64, def *ast.AggDef, row int, unit []float64, args []float64, skipMinMax bool) []float64 {
	a := p.an.Agg(def)
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
	need := a.need
	if p.unbuilt != nil {
		// An unbuilt provider answers one definition, one-shot.
		if def != p.unbuilt {
			p.guardLazyBuild("index")
		}
		need = 0
	}
	g := a.group
	idx := p.groupFor(g, need)
	f = p.onProbe(unit, args) // a lazy index build rebinds the frame row by row
	parts, mask, maskOK := p.matchParts(idx, a.Eqs, f)

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
	var payload []float64
	if a.divSlot >= 0 {
		w := len(g.payload(a.surf).fns)
		if cap(p.probePayload) < w {
			p.probePayload = make([]float64, w)
		}
		payload = p.probePayload[:w]
		clear(payload)
		if a.surf < 0 {
			g.fold.add(p, idx, parts, payload)
		} else {
			g.trees[a.surf].add(p, idx, parts, rect, payload)
		}
	}

	// Every nearest output reads the one search, run on the first.
	var best kdtree.Result
	searched := false
	for i, o := range def.Outputs {
		switch a.OutClass[i] {
		case ClassDivisible:
			out[i] = a.div[i].output(o.Func, payload)
		case ClassNearest:
			if !searched {
				best, searched = g.kd.search(p, a, idx, parts, unit, row), true
			}
			if best.Found {
				out[i] = nearestOutput(o.Func, best.Key, best.X, best.Y, best.DistSq)
			}
		case ClassGlobal:
			if ext := g.ext.answer(p, idx, parts, a.ext[i]); ext.ok {
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
func (p *Indexed) scanOutput(a *AggAnalysis, outIdx int, parts []*part, rect geom.Rect, unit, args []float64) float64 {
	p.Stats.PartScans++
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
// of Section 5.3.1, grouping probes by their constant window height. The
// result rows share one backing array allocated by this call; the caller
// owns it.
func (p *Indexed) EvalAggBatch(def *ast.AggDef, units [][]float64, args [][]float64) [][]float64 {
	a := p.an.Agg(def)
	w := len(def.Outputs)
	flat := make([]float64, len(units)*w)
	results := make([][]float64, len(units))
	sweep := p.BatchBeneficial(def)
	for i := range units {
		var arg []float64
		if args != nil {
			arg = args[i]
		}
		// With a sweep to follow, MinMax outputs stay at their identities
		// for it to overwrite.
		results[i] = p.evalCore(flat[i*w:(i+1)*w:(i+1)*w], def, -1, units[i], arg, sweep)
	}
	if sweep {
		a.group.sweeps[a.surf].sweep(p, a, units, args, results)
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
	if !a.Indexable || p.unbuilt != nil {
		return false // an unbuilt provider has no sweep orderings to batch over
	}
	for i := range def.Outputs {
		if a.OutClass[i] == ClassMinMax {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Action target selection

func (p *Indexed) keyLookup() *ordmap.Map {
	if p.keyIndex == nil {
		p.guardLazyBuild("key lookup")
		idx := ordmap.New(p.env.Len())
		kc := p.prog.Schema.KeyCol()
		for i, row := range p.env.Rows {
			idx.Put(int64(row[kc]), int32(i))
		}
		p.keyIndex = idx
	}
	return p.keyIndex
}

// SelectTargets visits the action's targets using the classified strategy:
// key lookups are O(1), area actions are O(log n + k) range-tree reports,
// everything else scans (matching the naive provider exactly).
func (p *Indexed) SelectTargets(def *ast.ActDef, unit []float64, args []float64, visit func([]float64)) {
	p.SelectTargetRows(def, -1, unit, args, func(_ int, row []float64) { visit(row) })
}

// SelectTargetRows is SelectTargets handing each target's row index along
// with its row, in the same order, so a caller folding effects by row
// needs no key lookup. self is the row index of unit (-1 when unit is no
// environment row): a by-key action naming the unit's own key targets it
// without a lookup, since keys are unique.
func (p *Indexed) SelectTargetRows(def *ast.ActDef, self int, unit []float64, args []float64, visit func(ri int, row []float64)) {
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
		kc := p.prog.Schema.KeyCol()
		ri, ok := int32(self), self >= 0 && int64(keyVal) == int64(unit[kc])
		if !ok {
			ri, ok = p.keyLookup().Get(int64(keyVal))
		}
		if ok {
			row := p.env.Rows[ri]
			if float64(int64(keyVal)) == row[kc] {
				// Verify the full WHERE clause on the one candidate: the
				// classifier only guarantees the key conjunct.
				f.Target = row
				if a.Where(f) {
					visit(int(ri), row)
				}
			}
		}
	case ActArea:
		idx := p.groupFor(a.group, a.need)
		f = p.onProbe(unit, args) // a lazy index build rebinds the frame row by row
		parts, _, _ := p.matchParts(idx, a.Eqs, f)
		a.group.trees[a.surf].report(p, parts, probeRect(a.Axes, f), visit)
	default:
		p.Stats.ScanProbes++
		for ri, row := range p.env.Rows {
			// Rebound every row: visit may evaluate on this view's frame.
			f.Unit, f.Args, f.Target = unit, args, row
			if a.Where == nil || a.Where(f) {
				visit(ri, row)
			}
		}
	}
}
