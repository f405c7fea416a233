// Ad-hoc observation queries over the world: the read half of the
// session API. A Query is a compiled, read-only SGL aggregate evaluated
// against a committed tick of the environment — the same "game AI as
// query processing" machinery the tick uses, opened up to spectators,
// observers, and tooling.
//
// Reads never touch the live environment. Every tick commit publishes an
// immutable ReadView (a copy of the rows — of those the tick changed,
// the rest shared with the previous view —, the tick number, that tick's
// random source) through an atomic pointer, and every read evaluates
// against the view current when it was called. Execution reuses the
// indexed evaluator end to end, but a view builds no index: the first
// reader of a query on a view scans that query's membership (which rows
// pass its filter, in which partition), and every probe of it on that
// view — including concurrent ones, each through a private
// exec.Indexed.Fork — is evaluated one-shot against the membership: one
// pass over the matching partitions' rows that adds the same floats in
// the same order as a probe of the built index would
// (exec.FreezeUnbuilt). The tick builds its indexes because n units
// probe each one; a view sees a handful of probes per query, fewer than
// an index over it needs to pay for itself (docs/ARCHITECTURE.md, "Read
// views"). QueryScan evaluates the same query with the naive O(n) scan
// provider; it is the semantics oracle the differential tests (and the
// fan-out benchmark's baseline) use.
//
// Which index class answers each output is fixed by the query's program
// and the engine's categoricals, never by a tick, so the Query owns that
// analysis (exec.Analyzer): its first evaluation builds it and the Query
// keeps it for as long as it lives. The engine caches nothing per query;
// a view keeps only the memberships scanned on it.
//
// A Probe says whose eyes a query looks through: the world's, an
// observer's at a position, or a live unit's. Query and QueryScan take
// the same Probe and check it, and resolve its unit, in one place
// (Query.probeRow), so both paths accept the same probes and reject the
// rest with the same errors. A push subscription is Query on the view
// of the tick it names: there is no other way to answer a query.
//
// Concurrency: Query/QueryScan may be called from any number of
// goroutines at any time, concurrently with Tick. A query issued while
// tick t+1 is computing answers for tick t at once. Readers of one query
// wait for nothing longer than its membership scan, and a view's
// providers are released with the view, so nothing is invalidated at the
// boundary.
package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/ordmap"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Query is a compiled observation query: one or more aggregate
// definitions checked in query mode (read-only, no effects, no Random),
// of which the last declared is the entry point. A Query may be shared
// by any number of engines and goroutines: nothing in it changes but
// the analysis its first evaluation stores, once.
type Query struct {
	prog *sem.Program
	def  *ast.AggDef
	// unitCols are the schema columns the entry aggregate reads through
	// its unit parameter (plus posx/posy for nearest outputs, which
	// implicitly probe from the unit's position). They decide which probes
	// the query accepts: none → any, ⊆ {posx, posy} → At or Unit,
	// anything else → Unit.
	unitCols []int
	// analysis is the query's index-usability analysis for the
	// categoricals of the first engine that evaluated it (see analyzer).
	analysis atomic.Pointer[queryAnalysis]
}

// queryAnalysis is an analyzer and the categoricals it was built for.
type queryAnalysis struct {
	cats []string
	an   *exec.Analyzer
}

// analyzer returns q's index-usability analysis under categoricals cats.
// An analysis is a pure function of (program, categoricals) and never
// changes, so the Query keeps the first one built, for as long as the
// Query lives: every engine with the same categoricals shares it, and an
// engine with others builds its own and does not keep it. Concurrent
// first callers may each build one; all but the stored one are dropped.
func (q *Query) analyzer(cats []string) *exec.Analyzer {
	a := q.analysis.Load()
	if a == nil {
		q.analysis.CompareAndSwap(nil, &queryAnalysis{cats: slices.Clone(cats), an: exec.NewAnalyzer(q.prog, cats)})
		a = q.analysis.Load()
	}
	if !slices.Equal(a.cats, cats) {
		return exec.NewAnalyzer(q.prog, cats)
	}
	return a.an
}

// CompileQuery parses and checks an observation query against a schema
// and constant table. The source is the SGL aggregate-definition subset:
// filters, categorical and range predicates, and aggregate outputs —
// no actions, no effects, no Random. The last aggregate declared is the
// query's entry point.
func CompileQuery(src string, schema *table.Schema, consts map[string]float64) (*Query, error) {
	script, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := sem.CheckQuery(script, schema, consts)
	if err != nil {
		return nil, err
	}
	def := script.Aggs[len(script.Aggs)-1]
	return &Query{prog: prog, def: def, unitCols: unitCols(def, schema)}, nil
}

// Name returns the entry aggregate's name.
func (q *Query) Name() string { return q.def.Name }

// Outputs returns the entry aggregate's output column names, in result
// order.
func (q *Query) Outputs() []string {
	out := make([]string, len(q.def.Outputs))
	for i, o := range q.def.Outputs {
		out[i] = o.As
	}
	return out
}

// needsUnit reports whether the query reads any attribute of its probe
// unit beyond position — such a query accepts only a Unit probe.
func (q *Query) needsUnit() bool {
	for _, c := range q.unitCols {
		if n := q.prog.Schema.Attr(c).Name; n != "posx" && n != "posy" {
			return true
		}
	}
	return false
}

// needsPosition reports whether the query probes from a position
// (explicit u.posx/u.posy references or nearest-neighbour outputs).
func (q *Query) needsPosition() bool { return len(q.unitCols) > 0 }

// Probe is the unit a query evaluation looks through: none (World, the
// zero Probe), a synthetic observer standing at a position (At), or a
// live unit picked by key (Unit). A query that reads no unit attribute
// accepts every probe; one that reads only position (u.posx/u.posy, or
// nearest-neighbour outputs, which measure from the probe) accepts At
// and Unit; any other accepts Unit only.
type Probe struct {
	kind probeKind
	x, y float64
	key  int64
}

type probeKind uint8

const (
	probeWorld probeKind = iota
	probeAt
	probeUnit
)

// World is the probe of a world query, one that reads no attribute of a
// probe unit.
func World() Probe { return Probe{} }

// At probes from an observer at (x, y): a synthetic unit carrying only
// that position, with a key no live unit has, so nearest-neighbour
// self-exclusion never drops a real unit.
func At(x, y float64) Probe { return Probe{kind: probeAt, x: x, y: y} }

// Unit probes through the eyes of the live unit with the given key,
// exactly as the unit's own script observes the world.
func Unit(key int64) Probe { return Probe{kind: probeUnit, key: key} }

// unitCols collects the schema columns def reads through its unit
// parameter, in ascending column order. Nearest outputs count as posx
// and posy reads: the kD probe starts at the unit's position.
func unitCols(def *ast.AggDef, schema *table.Schema) []int {
	var cols []int
	ast.Inspect(def, func(n any) bool {
		switch n := n.(type) {
		case *ast.FieldRef:
			if c, ok := schema.Col(n.Field); ok && n.Base == def.Params[0] {
				cols = append(cols, c)
			}
		case *ast.AggOutput:
			switch n.Func {
			case ast.NearestKey, ast.NearestDist, ast.NearestX, ast.NearestY:
				cols = append(cols, schema.MustCol("posx"), schema.MustCol("posy"))
			}
		}
		return true
	})
	slices.Sort(cols)
	return slices.Compact(cols)
}

// maxCachedQueries bounds a read view's providers: a paused world served
// ad-hoc queries would otherwise grow a membership per distinct Query
// with no tick to release them. Past the cap the least-recently-used
// provider is dropped.
const maxCachedQueries = 64

// ---------------------------------------------------------------------------
// Read views

// ReadView is one committed tick of the world, published for readers: an
// immutable copy of the environment, the tick it is the state after, that
// tick's random source, and the run counters a status line shows. The
// paper's state-effect pattern makes the environment of a tick a relation
// nobody writes until effects combine at the boundary; a view is that
// relation handed to spectators, so a read never waits for the tick in
// flight — it answers for the last committed tick, and says so.
//
// Everything read through one view is mutually consistent: Tick labels
// exactly the state every Query and QueryScan on the same view evaluates
// against. A view stays valid for as long as a reader holds it, however
// far the world has moved on. All methods are safe for concurrent use.
type ReadView struct {
	e      *Engine // immutable facts (schema, categoricals, position columns)
	tick   int64
	env    *table.Table // rows shared with neighbouring views; never written after publish
	rs     rng.TickSource
	deaths int
	moves  int
	// work is the index work of the tick that published the view.
	work exec.Stats

	// provs holds one provider per query evaluated on this view, created
	// by the first reader that asks. Bounded by maxCachedQueries for
	// worlds that never tick; seq stamps each use for the LRU.
	mu    sync.Mutex
	provs map[*Query]*viewProvider
	seq   uint64

	// keys is the key → row-index table a Unit probe resolves through,
	// shared by every query on the view: the engine's own at publish. No
	// one writes a table a view holds — the engine edits a copy when the
	// key set changes (applyCommands) — and the view's rows are the
	// engine's, in the same order.
	keys *ordmap.Map

	// The position column (positions): the column gathered at the last
	// full copy, shared with every view since, and the rows named since,
	// whose entries the first read patches from this view's rows.
	posBase  []geom.Point
	posSince []int
	posOnce  sync.Once
	pos      []geom.Point
}

// viewProvider is one query's evaluation state on one view: q's
// membership over the view's rows and no index structure (see
// evalIndexed). The once serializes readers of the same query behind a
// single membership scan without making readers of other queries wait.
type viewProvider struct {
	once  sync.Once
	prov  *exec.Indexed
	forks sync.Pool // idle forks of prov: a probe reuses one's scratch
	seq   uint64    // recency stamp, guarded by the view's mu
}

// publishView copies the committed environment into a fresh read view
// and swaps it in. Called with the engine quiescent: at construction, at
// restore, and as the last step of a tick.
//
// Only the rows the tick's delta names are copied, into one fresh block;
// every other row is shared with the previous view, whose rows nobody
// writes. A valid delta is exactly what that needs: the tick's capture
// diffed the rows against the previous view's (incremental.go). Without
// one — at New and Open, and after a population change — every row
// counts as named. A shared row keeps its whole block alive, so once the
// rows copied since the last full copy would pass n, every row is
// copied again: the newest view reaches at most that full copy plus
// blocks holding at most n rows — two full copies, whatever the dirty
// pattern.
//
// The position column follows the same rule at O(named rows) a tick: a
// full copy gathers a fresh base column, and every other publish only
// adds the rows it names, once each, to the rows changed since. A view
// holds both and builds its own column on first read (positions).
func (e *Engine) publishView() {
	prev := e.view.Load()
	n, w := e.env.Len(), e.prog.Schema.NumAttrs()
	rows := make([][]float64, n)
	named, all := e.delta.Dirty, true
	if e.deltaOK && e.viewCopied+len(named) <= n {
		copy(rows, prev.env.Rows)
		all = false
		e.viewCopied += len(named)
	} else {
		e.viewCopied = 0
		// Fresh storage: older views keep theirs. posSince never outgrows
		// n, so no publish until the next full copy allocates for it.
		e.posBase, e.posSince = make([]geom.Point, n), make([]int, 0, n)
		e.posNamed = slices.Grow(e.posNamed[:0], n)[:n]
		clear(e.posNamed)
	}
	copied := len(named)
	if all {
		copied = n
	}
	block := make([]float64, copied*w)
	for k := 0; k < copied; k++ {
		i := k
		if !all {
			i = named[k]
		}
		row := e.env.Rows[i]
		rows[i] = block[k*w : (k+1)*w : (k+1)*w]
		copy(rows[i], row)
		if all {
			e.posBase[i] = geom.Point{X: row[e.posX], Y: row[e.posY]}
		} else if !e.posNamed[i] {
			e.posNamed[i] = true
			e.posSince = append(e.posSince, i)
		}
	}
	e.view.Store(&ReadView{
		e:        e,
		tick:     e.tick,
		env:      &table.Table{Schema: e.env.Schema, Rows: rows},
		posBase:  e.posBase,
		posSince: slices.Clip(e.posSince), // later appends land past its end
		rs:       e.src.Tick(e.tick),
		deaths:   e.Stats.Deaths,
		moves:    e.Stats.Moves,
		work:     e.Stats.IndexStats.Since(e.viewWork),
		keys:     e.keyIndex(),
	})
	e.viewWork = e.Stats.IndexStats
}

// positions returns the view's rows' (posx, posy) in row order, bit for
// bit: the point set a one-shot range probe reads
// (exec.Indexed.SeedPositions) instead of gathering it from rows spread
// over copy-on-write blocks. The first call builds it — the base column
// as it stands when no row changed since its gather, else a copy of it
// with the changed rows' entries read from this view's rows — and every
// later one returns that.
func (v *ReadView) positions() []geom.Point {
	v.posOnce.Do(func() {
		if len(v.posSince) == 0 {
			v.pos = v.posBase
			return
		}
		v.pos = slices.Clone(v.posBase)
		for _, i := range v.posSince {
			row := v.env.Rows[i]
			v.pos[i] = geom.Point{X: row[v.e.posX], Y: row[v.e.posY]}
		}
	})
	return v.pos
}

// ReadView returns the view of the last committed tick. It takes no
// lock and never blocks, whatever the engine is doing.
func (e *Engine) ReadView() *ReadView { return e.view.Load() }

// Tick returns the number of ticks committed when the view was published.
func (v *ReadView) Tick() int64 { return v.tick }

// Units returns the view's population.
func (v *ReadView) Units() int { return v.env.Len() }

// Deaths returns the run's cumulative death count as of the view's tick.
func (v *ReadView) Deaths() int { return v.deaths }

// Moves returns the run's cumulative move count as of the view's tick.
func (v *ReadView) Moves() int { return v.moves }

// TickWork returns the index work counts of the tick that published the
// view (the engine's IndexStats gained over it): zero for the view a new
// or opened engine starts with.
func (v *ReadView) TickWork() exec.Stats { return v.work }

// evalIndexed answers one probe of q on this view through the indexed
// evaluator, one-shot: the first reader scans q's membership, and every
// probe — this one, later ones, concurrent ones — is evaluated directly
// against it through a private fork. A view never builds an index (the
// package comment says why). unit and args are only read.
func (v *ReadView) evalIndexed(q *Query, unit, args []float64) []float64 {
	v.mu.Lock()
	if v.provs == nil {
		v.provs = map[*Query]*viewProvider{}
	}
	p := v.provs[q]
	if p == nil {
		p = &viewProvider{}
		v.provs[q] = p
		if len(v.provs) > maxCachedQueries {
			v.evictLRU(q)
		}
	}
	v.seq++
	p.seq = v.seq
	v.mu.Unlock()
	p.once.Do(func() {
		p.prov = exec.NewIndexed(q.analyzer(v.e.opts.Categoricals), v.env, v.rs)
		p.prov.SeedPositions(v.positions())
		p.prov.FreezeUnbuilt(q.def)
	})
	v.e.queryOneShots.Add(1)
	f, _ := p.forks.Get().(*exec.Indexed)
	if f == nil {
		f = p.prov.Fork()
	}
	vals := f.EvalAgg(q.def, unit, args)
	p.forks.Put(f)
	return vals
}

// evictLRU drops the provider with the smallest use stamp, sparing keep
// (the query just inserted); called with mu held. Stamps are unique, so
// the victim never depends on iteration order; evicting costs a rescan,
// never an answer.
func (v *ReadView) evictLRU(keep *Query) {
	var victim *Query
	var oldest uint64
	//sgl:unordered LRU victim search is a min-fold over unique use stamps
	for q, p := range v.provs {
		if q != keep && (victim == nil || p.seq < oldest) {
			victim, oldest = q, p.seq
		}
	}
	delete(v.provs, victim)
}

// QueryOneShots reports how many indexed observation-query probes this
// engine's read views have answered. An operational counter for the
// serving layer: atomic, safe to read at any time, and — unlike Stats —
// in no checkpoint.
func (e *Engine) QueryOneShots() int64 { return e.queryOneShots.Load() }

// probeRow checks one evaluation of q — probe p against the query's
// probe class, then the argument count — and returns the probe unit's
// row on v. World and At probe through a synthetic row: zeros, key −1
// (no live unit's, so nearest-neighbour self-exclusion is inert), the
// position as given. Unit probes through the unit's own row, its key
// resolved through the view's int64 key index — exactly: no float key is
// compared, so a key past 2^53 aliases no unit. An At position must be
// finite, like every unit's: the kD search's one-pass answer
// (kdtree.NearestOnce) holds for finite coordinates only. The one-shot
// and scan paths both start here, so they accept the same probes and
// reject the rest with the same error.
func (q *Query) probeRow(p Probe, v *ReadView, args []float64) ([]float64, error) {
	var row []float64
	switch {
	case p.kind == probeUnit:
		ri, ok := v.keys.Get(p.key)
		if !ok {
			return nil, fmt.Errorf("engine: query %s: no unit with key %d", q.def.Name, p.key)
		}
		row = v.env.Rows[ri]
	case p.kind == probeAt && !(finite(p.x) && finite(p.y)):
		return nil, fmt.Errorf("engine: query %s: At probe (%v, %v) is not a finite position", q.def.Name, p.x, p.y)
	case q.needsUnit():
		return nil, fmt.Errorf("engine: query %s reads unit attributes %s beyond position; it needs a Unit probe", q.def.Name, q.unitAttrNames())
	case p.kind == probeWorld && q.needsPosition():
		return nil, fmt.Errorf("engine: query %s reads unit attributes %s; it needs an At or Unit probe", q.def.Name, q.unitAttrNames())
	default:
		row = make([]float64, v.env.Schema.NumAttrs())
		row[v.env.Schema.KeyCol()] = -1
		row[v.e.posX], row[v.e.posY] = p.x, p.y
	}
	if want := len(q.def.Params) - 1; len(args) != want {
		return nil, fmt.Errorf("engine: query %s takes %d argument(s), got %d", q.def.Name, want, len(args))
	}
	return row, nil
}

// Query evaluates q through probe p and returns the entry aggregate's
// outputs in declaration order. The indexed evaluator answers it
// one-shot against q's membership on this view (see evalIndexed).
func (v *ReadView) Query(q *Query, p Probe, args ...float64) ([]float64, error) {
	unit, err := q.probeRow(p, v, args)
	if err != nil {
		return nil, err
	}
	return v.evalIndexed(q, unit, args), nil
}

// QueryScan is Query evaluated by a full O(n) scan of the view — the
// paper's pluggable-evaluator duality applied to reads. It is the
// differential oracle and the baseline the fan-out benchmark measures
// against; results agree with Query up to floating-point association
// (exactly like Naive vs Indexed engine mode).
func (v *ReadView) QueryScan(q *Query, p Probe, args ...float64) ([]float64, error) {
	unit, err := q.probeRow(p, v, args)
	if err != nil {
		return nil, err
	}
	return interp.NewNaive(q.prog, v.env, v.rs).EvalAgg(q.def, unit, args), nil
}

// unitAttrNames renders the unit attributes a query reads, for error
// messages.
func (q *Query) unitAttrNames() string {
	names := make([]string, len(q.unitCols))
	for i, c := range q.unitCols {
		names[i] = q.prog.Schema.Attr(c).Name
	}
	return strings.Join(names, ", ")
}
