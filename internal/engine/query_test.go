package engine

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/epicscale/sgl/internal/game"
)

// queryKind says which probe form a zoo query exercises.
type queryKind int

const (
	qWorld queryKind = iota // Engine.Query
	qAt                     // Engine.QueryAt (positional)
	qUnit                   // Engine.QueryUnit (live-unit perspective)
)

// queryZoo covers every output class the indexed evaluator has — range
// aggregates over the range tree, k-NN over the kD-tree, global extrema,
// windowed min/max, and a residual predicate that forces the scan
// fallback — in each probe form. Each query's indexed result must match
// the naive scan evaluation over the same snapshot.
var queryZoo = []struct {
	name string
	src  string
	kind queryKind
	args []float64
}{
	{"count-by-player", `
aggregate Army(u, p) := count(*) as n, sum(e.health) as hp over e where e.player = p;`,
		qWorld, []float64{1}},

	{"zone-divisible", `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp, avg(e.health) as mean, stddev(e.health) as sd
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`,
		qWorld, []float64{12, 12, 9}},

	{"zone-one-sided", `
aggregate East(u, x) := count(*) over e where e.posx >= x;`,
		qWorld, []float64{10}},

	{"global-extrema", `
aggregate Strongest(u) :=
  max(e.health) as top, argmax(e.health) as who,
  min(e.health) as low, argmin(e.health) as frail
  over e where e.unittype = 0;`,
		qWorld, nil},

	{"window-minmax", `
aggregate WeakestNear(u, x, y, r) :=
  min(e.health) as hp, argmin(e.health) as key
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`,
		qWorld, []float64{10, 14, 12}},

	{"residual-scan-fallback", `
aggregate Diagonal(u, c) := count(*) over e where e.posx + e.posy <= c;`,
		qWorld, []float64{25}},

	{"wounded-filter", `
aggregate Wounded(u, p) :=
  count(*) as n, avg(e.maxhealth - e.health) as missing
  over e where e.player = p and e.health < e.maxhealth;`,
		qWorld, []float64{0}},

	{"knn-from-position", `
aggregate Closest(u) :=
  nearestkey() as key, nearestdist() as dist, nearestx() as x, nearesty() as y
  over e;`,
		qAt, nil},

	{"knn-filtered", `
aggregate ClosestHealer(u, p) :=
  nearestkey() as key, nearestdist() as dist
  over e where e.player = p and e.unittype = 2;`,
		qAt, []float64{0}},

	{"window-from-position", `
aggregate Here(u, r) :=
  count(*) as n, avg(e.posx) as cx, avg(e.posy) as cy
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`,
		qAt, []float64{8}},

	{"unit-perspective-sight", `
aggregate SeenBy(u) :=
  count(*) as n, avg(e.health) as hp
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player;`,
		qUnit, nil},

	{"unit-perspective-nearest-foe", `
aggregate Foe(u) := nearestkey() as key, nearestdist() as dist
  over e where e.player <> u.player;`,
		qUnit, nil},
}

func compileQuery(t testing.TB, src string) *Query {
	t.Helper()
	q, err := CompileQuery(src, game.Schema(), game.Consts())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// closeEnough mirrors the engine's naive-vs-indexed tolerance: indexed
// aggregates associate floating-point folds differently than a scan.
func closeEnough(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestQueryMatchesScan is the acceptance harness for observation
// queries: for every zoo query, at several ticks of a live battle, the
// indexed evaluation must equal the naive scan evaluation over the same
// snapshot.
func TestQueryMatchesScan(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 13, nil)
	probes := [][2]float64{{0, 0}, {10, 14}, {25, 3}}
	for tick := 0; tick < 8; tick++ {
		for _, zq := range queryZoo {
			q := compileQuery(t, zq.src)
			var pairs [][2][]float64
			switch zq.kind {
			case qWorld:
				idx, err := e.Query(q, zq.args...)
				if err != nil {
					t.Fatalf("%s: %v", zq.name, err)
				}
				scan, err := e.QueryScan(q, zq.args...)
				if err != nil {
					t.Fatalf("%s: %v", zq.name, err)
				}
				pairs = append(pairs, [2][]float64{idx, scan})
			case qAt:
				for _, p := range probes {
					idx, err := e.QueryAt(q, p[0], p[1], zq.args...)
					if err != nil {
						t.Fatalf("%s: %v", zq.name, err)
					}
					scan, err := e.QueryScanAt(q, p[0], p[1], zq.args...)
					if err != nil {
						t.Fatalf("%s: %v", zq.name, err)
					}
					pairs = append(pairs, [2][]float64{idx, scan})
				}
			case qUnit:
				for _, key := range []int64{0, 17, 42} {
					idx, err := e.QueryUnit(q, key, zq.args...)
					if err != nil {
						t.Fatalf("%s: %v", zq.name, err)
					}
					scan, err := e.QueryScanUnit(q, key, zq.args...)
					if err != nil {
						t.Fatalf("%s: %v", zq.name, err)
					}
					pairs = append(pairs, [2][]float64{idx, scan})
				}
			}
			for _, pr := range pairs {
				if len(pr[0]) != len(pr[1]) {
					t.Fatalf("%s: output arity mismatch", zq.name)
				}
				for i := range pr[0] {
					if !closeEnough(pr[0][i], pr[1][i]) {
						t.Fatalf("tick %d, %s, output %s: indexed %v != scan %v",
							tick, zq.name, q.Outputs()[i], pr[0][i], pr[1][i])
					}
				}
			}
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// Queries are served from the live post-tick state, not a stale
// snapshot: after a tick changes the world, a repeated query must see
// the change.
func TestQuerySeesLiveState(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 13, nil)
	q := compileQuery(t, `aggregate Centroid(u) := avg(e.posx) as x, avg(e.posy) as y over e;`)
	before, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if before[0] == after[0] && before[1] == after[1] {
		t.Fatal("query result frozen across 5 ticks of a battle-lines engagement (armies march)")
	}
	scan, err := e.QueryScan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !closeEnough(after[0], scan[0]) || !closeEnough(after[1], scan[1]) {
		t.Fatal("post-tick query disagrees with post-tick scan")
	}
}

// N concurrent readers share one membership scan per (query, view) and
// build no index, however many probes the view sees: the provider is
// scanned once, forked per call, and every answer carries the same bits.
func TestQueryConcurrentReadersShareBuild(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 13, nil)
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	q := compileQuery(t, `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`)

	v := e.ReadView()
	want, err := v.Query(q, 12, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	const readers, perReader = 16, 50
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				got, err := v.Query(q, 12, 12, 10)
				if err != nil {
					errs[g] = err
					return
				}
				if !sameBits(got, want) {
					errs[g] = errAt{g, i}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	v.mu.Lock()
	p := v.provs[q]
	cached := len(v.provs)
	v.mu.Unlock()
	if p == nil || p.prov == nil || cached != 1 {
		t.Fatalf("want exactly one provider on the view, have %d (q's: %v)", cached, p)
	}
	if n := p.prov.Stats.IndexBuilds; n != 0 {
		t.Fatalf("%d probes of one view built %d index structures, want none", readers*perReader+1, n)
	}
	if got := e.QueryOneShots(); got != readers*perReader+1 {
		t.Fatalf("QueryOneShots() = %d, want %d", got, readers*perReader+1)
	}
}

type errAt [2]int

func (e errAt) Error() string { return "concurrent query result diverged" }

// Probe-form validation: a query that reads unit attributes is rejected
// by the wrong entry points with an actionable message.
func TestQueryProbeFormValidation(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 48, Indexed, 1, nil)

	needsUnit := compileQuery(t, `
aggregate Seen(u) := count(*) over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight;`)
	if _, err := e.Query(needsUnit); err == nil || !strings.Contains(err.Error(), "QueryUnit") {
		t.Fatalf("unit-reading query accepted as world query: %v", err)
	}
	if _, err := e.QueryAt(needsUnit, 1, 2); err == nil || !strings.Contains(err.Error(), "QueryUnit") {
		t.Fatalf("sight-reading query accepted as positional query: %v", err)
	}
	if got := needsUnit.NeedsUnit(); !got {
		t.Fatal("NeedsUnit() = false for a u.sight query")
	}

	positional := compileQuery(t, `aggregate C(u) := nearestkey() as k over e;`)
	if _, err := e.Query(positional); err == nil {
		t.Fatal("nearest query accepted without a position")
	}
	if _, err := e.QueryAt(positional, 3, 4); err != nil {
		t.Fatal(err)
	}
	if positional.NeedsUnit() || !positional.NeedsPosition() {
		t.Fatal("nearest query misclassified")
	}

	world := compileQuery(t, `aggregate N(u) := count(*) over e;`)
	if _, err := e.Query(world); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(world, 1); err == nil || !strings.Contains(err.Error(), "argument") {
		t.Fatalf("arity mismatch accepted: %v", err)
	}
	if _, err := e.QueryUnit(world, 99999); err == nil || !strings.Contains(err.Error(), "no unit") {
		t.Fatalf("missing key accepted: %v", err)
	}

	if world.Name() != "N" {
		t.Fatalf("Name() = %q", world.Name())
	}
	params := compileQuery(t, `aggregate P(u, a, b) := count(*) over e where e.posx >= a and e.posx <= b;`)
	if got := params.Params(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Params() = %v", got)
	}
}

// CompileQuery surfaces parse and semantic errors.
func TestCompileQueryErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`aggregate A(u) := count(*`, ""},
		{`function main(u) { perform X(u) }`, "read-only"},
		{`aggregate A(u) := count(*) over e where Random(1) > 0;`, "Random"},
	} {
		_, err := CompileQuery(tc.src, game.Schema(), game.Consts())
		if err == nil {
			t.Fatalf("CompileQuery(%q) succeeded", tc.src)
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("CompileQuery(%q) error = %v, want %q", tc.src, err, tc.want)
		}
	}
}

// Per-query cache state must not grow without bound when callers compile
// queries ad hoc: entries unused for a few ticks are evicted, while a
// query evaluated every tick stays warm.
func TestQueryCacheEviction(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 48, Indexed, 1, nil)
	hot := compileQuery(t, `aggregate Hot(u) := count(*) over e;`)
	for i := 0; i < 10; i++ {
		oneShot := compileQuery(t, `aggregate Once(u) := avg(e.health) over e;`)
		if _, err := e.Query(oneShot); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(hot); err != nil {
			t.Fatal(err)
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	e.qmu.Lock()
	cached := len(e.queries.cache)
	_, hotAlive := e.queries.cache[hot]
	e.qmu.Unlock()
	if !hotAlive {
		t.Fatal("hot query evicted despite being evaluated every tick")
	}
	if cached > 1+queryEvictAfter+1 {
		t.Fatalf("query cache grew to %d entries; one-shot queries are not evicted", cached)
	}

	// Between ticks both caches are capped: a paused world answering
	// ad-hoc queries must grow neither the engine's analyzers nor the
	// read view's providers without bound.
	for i := 0; i < 200; i++ {
		oneShot := compileQuery(t, `aggregate Flood(u) := count(*) over e;`)
		if _, err := e.Query(oneShot); err != nil {
			t.Fatal(err)
		}
	}
	e.qmu.Lock()
	cached = len(e.queries.cache)
	e.qmu.Unlock()
	if cached > maxCachedQueries {
		t.Fatalf("query cache grew to %d entries without a tick (cap %d)", cached, maxCachedQueries)
	}
	v := e.ReadView()
	v.mu.Lock()
	frozen := len(v.provs)
	v.mu.Unlock()
	if frozen > maxCachedQueries {
		t.Fatalf("read view holds %d providers without a tick (cap %d)", frozen, maxCachedQueries)
	}
}
