package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/workload"
)

// queryKind says which probe a zoo query is evaluated through.
type queryKind int

const (
	qWorld queryKind = iota // World
	qAt                     // At a position
	qUnit                   // Unit, a live unit's perspective
)

// probe is the kind's probe at position (x, y) or unit key.
func (k queryKind) probe(x, y float64, key int64) Probe {
	switch k {
	case qAt:
		return At(x, y)
	case qUnit:
		return Unit(key)
	}
	return World()
}

// queryPaths are the two ways to evaluate a query through a probe:
// one-shot on the current read view and its scan twin.
var queryPaths = []struct {
	name string
	eval func(e *Engine, q *Query, p Probe, args ...float64) ([]float64, error)
}{
	{"one-shot", func(e *Engine, q *Query, p Probe, args ...float64) ([]float64, error) {
		return e.ReadView().Query(q, p, args...)
	}},
	{"scan", func(e *Engine, q *Query, p Probe, args ...float64) ([]float64, error) {
		return e.ReadView().QueryScan(q, p, args...)
	}},
}

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
	probes := []struct {
		x, y float64
		key  int64
	}{{0, 0, 0}, {10, 14, 17}, {25, 3, 42}}
	for tick := 0; tick < 8; tick++ {
		for _, zq := range queryZoo {
			q := compileQuery(t, zq.src)
			var pairs [][2][]float64
			for _, p := range probes {
				v := e.ReadView()
				idx, err := v.Query(q, zq.kind.probe(p.x, p.y, p.key), zq.args...)
				if err != nil {
					t.Fatalf("%s: %v", zq.name, err)
				}
				scan, err := v.QueryScan(q, zq.kind.probe(p.x, p.y, p.key), zq.args...)
				if err != nil {
					t.Fatalf("%s: %v", zq.name, err)
				}
				pairs = append(pairs, [2][]float64{idx, scan})
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

// queryCommands is the command stream the held-query differentials (and
// TestPushedMatchesPolled) submit before the step to each tick: sets on
// a column the tick never writes (morale) and on one it does (health), a
// despawn (a population change) and a tune, so every way the command
// pipeline edits a view faces the scan oracle.
var queryCommands = map[int][]Command{
	2: {{Op: OpSet, Key: 3, Col: "morale", Val: 11}},
	4: {{Op: OpSet, Key: 5, Col: "health", Val: 2}, {Op: OpSet, Key: 17, Col: "morale", Val: 1}},
	6: {{Op: OpDespawn, Key: 9}},
	7: {{Op: OpTune, Col: "_HEAL_AURA", Val: 5}},
	8: {{Op: OpSet, Key: 42, Col: "morale", Val: 7}},
}

// runHeldQueryDifferential drives the battle in cell c for ten ticks and
// checks, at every view, that each zoo query answers one-shot what the
// scan answers, at three probes. Unlike TestQueryMatchesScan, which
// compiles afresh each tick, every query is compiled once and held, so
// its analyzer outlives the ticks (and, with commands, the edits and
// tunes) it was built on; the analyzer must be the same one at every
// tick, since the Query owns it.
func runHeldQueryDifferential(t *testing.T, c gridCell, commands map[int][]Command) {
	t.Helper()
	const ticks = 10
	e := newEngine(t, battleProg(t), 90, Indexed, 13, c.tune)
	held := make([]*Query, len(queryZoo))
	analyzers := make([]*exec.Analyzer, len(queryZoo))
	for i, zq := range queryZoo {
		held[i] = compileQuery(t, zq.src)
	}
	probes := []struct {
		x, y float64
		key  int64
	}{{0, 0, 0}, {10, 14, 17}, {25, 3, 42}}
	for tick := 0; tick <= ticks; tick++ {
		if tick > 0 {
			if cmds := commands[tick]; cmds != nil {
				if _, err := e.SubmitSharded("held", cmds...); err != nil {
					t.Fatalf("tick %d: submit: %v", tick, err)
				}
			}
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		v := e.ReadView()
		for i, zq := range queryZoo {
			q := held[i]
			for _, p := range probes {
				pr := zq.kind.probe(p.x, p.y, p.key)
				got, err := v.Query(q, pr, zq.args...)
				if err != nil {
					t.Fatalf("tick %d, %s: one-shot: %v", tick, zq.name, err)
				}
				scan, err := v.QueryScan(q, pr, zq.args...)
				if err != nil {
					t.Fatalf("tick %d, %s: scan: %v", tick, zq.name, err)
				}
				if len(got) != len(scan) {
					t.Fatalf("tick %d, %s: output arity mismatch", tick, zq.name)
				}
				for j := range got {
					if !closeEnough(got[j], scan[j]) {
						t.Fatalf("tick %d, %s, output %s: one-shot %v != scan %v",
							tick, zq.name, q.Outputs()[j], got[j], scan[j])
					}
				}
			}
			an := q.analysis.Load().an
			if analyzers[i] == nil {
				analyzers[i] = an
			} else if an != analyzers[i] {
				t.Fatalf("tick %d, %s: the held query's analyzer was rebuilt; a Query keeps its analysis", tick, zq.name)
			}
		}
	}
	if c.rebuild {
		assertRebuilt(t, e)
	} else if e.Stats.MaintainTicks == 0 {
		t.Fatalf("the maintaining cell maintained no tick: %+v", e.Stats)
	}
}

// TestHeldQueryMatchesScan: queries held across ticks answer one-shot
// what the scan answers at every view, in every cell of the grid.
func TestHeldQueryMatchesScan(t *testing.T) {
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) { runHeldQueryDifferential(t, c, nil) })
	}
}

// TestHeldQueryMatchesScanWithCommands is TestHeldQueryMatchesScan with
// set, despawn and tune commands in the stream.
func TestHeldQueryMatchesScanWithCommands(t *testing.T) {
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) { runHeldQueryDifferential(t, c, queryCommands) })
	}
}

// Queries are served from the live post-tick state, not a stale
// snapshot: after a tick changes the world, a repeated query must see
// the change.
func TestQuerySeesLiveState(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 13, nil)
	q := compileQuery(t, `aggregate Centroid(u) := avg(e.posx) as x, avg(e.posy) as y over e;`)
	before, err := e.ReadView().Query(q, World())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	after, err := e.ReadView().Query(q, World())
	if err != nil {
		t.Fatal(err)
	}
	if before[0] == after[0] && before[1] == after[1] {
		t.Fatal("query result frozen across 5 ticks of a battle-lines engagement (armies march)")
	}
	scan, err := e.ReadView().QueryScan(q, World())
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
	want, err := v.Query(q, World(), 12, 12, 10)
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
				got, err := v.Query(q, World(), 12, 12, 10)
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

// TestQueryValidationMatrix: every query class × probe kind (a non-finite
// At position among them) × argument count is accepted or rejected the
// same way on both evaluation paths — one-shot and scan — with the
// same error text, since they share one check
// (Query.probeRow). Accepted evaluations agree with the scan.
func TestQueryValidationMatrix(t *testing.T) {
	e := newEngine(t, battleProg(t), 48, Indexed, 1, nil)
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	classes := []struct {
		name, src           string
		needsUnit, needsPos bool
		params              []string
	}{
		{"W", `aggregate W(u, a, b) := count(*) over e where e.posx >= a and e.posx <= b;`, false, false, []string{"a", "b"}},
		{"P", `aggregate P(u, r) := nearestkey() as k, count(*) as n over e where e.posx >= u.posx - r;`, false, true, []string{"r"}},
		{"U", `aggregate U(u) := count(*) over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight;`, true, true, nil},
	}
	probes := []struct {
		name string
		p    Probe
	}{
		{"world", World()},
		{"at", At(3, 4)},
		{"unit", Unit(17)},
		{"unit-missing", Unit(99999)},
		{"unit-negative", Unit(-1)},
		{"at-nan", At(math.NaN(), 4)},
		{"at-inf", At(3, math.Inf(-1))},
	}
	for _, c := range classes {
		q := compileQuery(t, c.src)
		if q.Name() != c.name {
			t.Fatalf("Name() = %q, want %q", q.Name(), c.name)
		}
		if q.needsUnit() != c.needsUnit || q.needsPosition() != c.needsPos {
			t.Fatalf("%s: needsUnit() = %v, needsPosition() = %v", c.name, q.needsUnit(), q.needsPosition())
		}
		if got := q.def.Params[1:]; strings.Join(got, ",") != strings.Join(c.params, ",") {
			t.Fatalf("%s: Params() = %v, want %v", c.name, got, c.params)
		}
		for _, pr := range probes {
			for _, nargs := range []int{len(c.params), len(c.params) + 1} {
				args := make([]float64, nargs)
				for i := range args {
					args[i] = float64(10 * (i + 1))
				}
				var want string
				switch {
				case pr.name == "unit-missing" || pr.name == "unit-negative":
					want = "no unit with key"
				case pr.name == "at-nan" || pr.name == "at-inf":
					want = "not a finite position"
				case pr.p.kind != probeUnit && c.needsUnit:
					want = "needs a Unit probe"
				case pr.p.kind == probeWorld && c.needsPos:
					want = "needs an At or Unit probe"
				case nargs != len(c.params):
					want = "argument(s)"
				}
				got := make([][]float64, len(queryPaths))
				var firstErr string
				for i, path := range queryPaths {
					vals, err := path.eval(e, q, pr.p, args...)
					errText := ""
					if err != nil {
						errText = err.Error()
					}
					at := fmt.Sprintf("query %s, %s probe, %d args, %s", c.name, pr.name, nargs, path.name)
					switch {
					case want == "" && err != nil:
						t.Fatalf("%s: rejected: %v", at, err)
					case want != "" && !strings.Contains(errText, want):
						t.Fatalf("%s: err = %v, want %q", at, err, want)
					case i > 0 && errText != firstErr:
						t.Fatalf("%s: err %q, the %s path said %q", at, errText, queryPaths[0].name, firstErr)
					}
					firstErr, got[i] = errText, vals
				}
				for i := range got {
					for o := range got[i] {
						if !closeEnough(got[i][o], got[1][o]) {
							t.Fatalf("query %s, %s probe: %s output %d = %v, scan %v", c.name, pr.name, queryPaths[i].name, o, got[i][o], got[1][o])
						}
					}
				}
			}
		}
	}
}

// TestUnitProbeResolvesKeyExactly: a Unit probe names its unit by int64
// key on every path. 2^53 and 2^53+1 are one float64, so resolving by the
// float key column answered a probe of 2^53+1 from unit 2^53 on the scan
// path. Both paths must now fail alike.
func TestUnitProbeResolvesKeyExactly(t *testing.T) {
	prog := battleProg(t)
	spec := workload.Spec{Units: 24, Density: 0.01, Seed: 3, Formation: workload.BattleLines}
	env := workload.Generate(spec)
	env.Rows[0][prog.Schema.KeyCol()] = 1 << 53
	e, err := New(prog, game.NewMechanics(), env, Options{Mode: Indexed, Categoricals: game.Categoricals(), Seed: 3, Side: spec.Side(), MoveSpeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := compileQuery(t, `aggregate Foes(u) := count(*) as n, sum(e.health) as hp over e where e.player <> u.player;`)
	want := fmt.Sprintf("engine: query Foes: no unit with key %d", int64(1<<53+1))
	for _, path := range queryPaths {
		if _, err := path.eval(e, q, Unit(1<<53)); err != nil {
			t.Fatalf("%s: unit 2^53 itself: %v", path.name, err)
		}
		if vals, err := path.eval(e, q, Unit(1<<53+1)); err == nil || err.Error() != want {
			t.Fatalf("%s: probe of key 2^53+1 = %v, %v; want %q", path.name, vals, err, want)
		}
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

// TestViewProvidersBounded: a paused world answering ad-hoc queries
// grows its read view's providers no further than the cap.
func TestViewProvidersBounded(t *testing.T) {
	e := newEngine(t, battleProg(t), 48, Indexed, 1, nil)
	for i := 0; i < 200; i++ {
		oneShot := compileQuery(t, `aggregate Flood(u) := count(*) over e;`)
		if _, err := e.ReadView().Query(oneShot, World()); err != nil {
			t.Fatal(err)
		}
	}
	v := e.ReadView()
	v.mu.Lock()
	frozen := len(v.provs)
	v.mu.Unlock()
	if frozen != maxCachedQueries {
		t.Fatalf("read view holds %d providers after 200 distinct queries without a tick, want the cap, %d", frozen, maxCachedQueries)
	}
}

// TestQueryAnalysisOwnedByQuery: a Query keeps the analysis of the first
// engine that reads it. Read every tick on two engines with the same
// categoricals, it keeps one analyzer throughout; read on an engine with
// other categoricals, it answers what a Query read only there answers,
// bit for bit, and keeps its first analyzer. First reads racing on all
// three engines agree with those answers.
func TestQueryAnalysisOwnedByQuery(t *testing.T) {
	const units, seed, ticks = 64, 19, 10
	prog := battleProg(t)
	player := func(o *Options) { o.Categoricals = []string{"player"} }
	a := newEngine(t, prog, units, Indexed, seed, nil)
	b := newEngine(t, prog, units, Indexed, seed, nil)
	c := newEngine(t, prog, units, Indexed, seed, player)
	engines := []*Engine{a, b, c}
	shared := make([]*Query, len(queryZoo))
	own := make([]*Query, len(queryZoo)) // read only on c
	first := make([]*exec.Analyzer, len(queryZoo))
	for i, zq := range queryZoo {
		shared[i], own[i] = compileQuery(t, zq.src), compileQuery(t, zq.src)
	}
	eval := func(e *Engine, q *Query, zi int) []float64 {
		t.Helper()
		zq := queryZoo[zi]
		vals, err := e.ReadView().Query(q, zq.kind.probe(10, 14, 17), zq.args...)
		if err != nil {
			t.Fatalf("%s: %v", zq.name, err)
		}
		return vals
	}
	for tick := 0; tick < ticks; tick++ {
		for i, zq := range queryZoo {
			if got, want := eval(a, shared[i], i), eval(b, shared[i], i); !sameBits(got, want) {
				t.Fatalf("tick %d, %s: equal engines answer %v and %v", tick, zq.name, got, want)
			}
			if got, want := eval(c, shared[i], i), eval(c, own[i], i); !sameBits(got, want) {
				t.Fatalf("tick %d, %s: the shared query answers %v on the {player} engine, its own query %v", tick, zq.name, got, want)
			}
			an := shared[i].analysis.Load().an
			if first[i] == nil {
				first[i] = an
			} else if an != first[i] {
				t.Fatalf("tick %d, %s: the query's analyzer was replaced", tick, zq.name)
			}
			if shared[i].analyzer(c.opts.Categoricals) == an {
				t.Fatalf("tick %d, %s: the {player} engine got the analysis built for %v", tick, zq.name, a.opts.Categoricals)
			}
		}
		for _, e := range engines {
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// First reads of fresh queries, racing on every engine at once.
	const readers = 16
	for i, zq := range queryZoo {
		want := [][]float64{eval(a, shared[i], i), eval(b, shared[i], i), eval(c, own[i], i)}
		q := compileQuery(t, zq.src)
		got := make([][]float64, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got[g], _ = engines[g%len(engines)].ReadView().Query(q, zq.kind.probe(10, 14, 17), zq.args...)
			}(g)
		}
		wg.Wait()
		for g, vals := range got {
			if !sameBits(vals, want[g%len(engines)]) {
				t.Fatalf("%s: racing reader %d answered %v, want %v", zq.name, g, vals, want[g%len(engines)])
			}
		}
	}
}
