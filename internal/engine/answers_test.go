package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/exec"
)

// runMaintainedDifferential drives the maintained-answer contract over
// one engine configuration: every zoo query, compiled once and held
// across ticks so its answers are actually maintained (the harness in
// query_test.go recompiles per tick, which would defeat the cache),
// must agree with the naive scan oracle at every tick. When exact is
// set, divisible queries must match the scan bit for bit — the refold
// guarantee — not merely within tolerance. A non-nil inject hook runs
// before each Tick and may Submit commands, so the contract also covers
// edits that enter through the command pipeline rather than the tick
// itself.
func runMaintainedDifferential(t *testing.T, workers int, threshold float64, ticks int, exact bool, inject func(t *testing.T, e *Engine, tick int)) *Engine {
	t.Helper()
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 13, func(o *Options) {
		o.Workers = workers
		o.threshold = threshold
	})
	type zooQuery struct {
		name      string
		q         *Query
		kind      queryKind
		args      []float64
		divisible bool
	}
	queries := make([]zooQuery, 0, len(queryZoo))
	for _, zq := range queryZoo {
		q := compileQuery(t, zq.src)
		queries = append(queries, zooQuery{
			name: zq.name, q: q, kind: zq.kind, args: zq.args,
			divisible: exec.NewAnswerPlan(q.prog, q.def).Divisible(),
		})
	}
	probes := []struct {
		x, y float64
		key  int64
	}{{0, 0, 0}, {10, 14, 17}, {25, 3, 42}}
	check := func(tick int, zq zooQuery, got, scan []float64, err1, err2 error) {
		t.Helper()
		if err1 != nil {
			t.Fatalf("tick %d, %s: maintained: %v", tick, zq.name, err1)
		}
		if err2 != nil {
			t.Fatalf("tick %d, %s: scan: %v", tick, zq.name, err2)
		}
		if len(got) != len(scan) {
			t.Fatalf("tick %d, %s: output arity mismatch", tick, zq.name)
		}
		for i := range got {
			if exact && zq.divisible {
				if got[i] != scan[i] && !(got[i] != got[i] && scan[i] != scan[i]) {
					t.Fatalf("tick %d, %s, output %s: maintained %v != scan %v (divisible answers must be bit-exact)",
						tick, zq.name, zq.q.Outputs()[i], got[i], scan[i])
				}
				continue
			}
			if !closeEnough(got[i], scan[i]) {
				t.Fatalf("tick %d, %s, output %s: maintained %v != scan %v",
					tick, zq.name, zq.q.Outputs()[i], got[i], scan[i])
			}
		}
	}
	for tick := 0; tick < ticks; tick++ {
		for _, zq := range queries {
			for _, p := range probes {
				pr := zq.kind.probe(p.x, p.y, p.key)
				got, err1 := e.QueryMaintained(zq.q, pr, zq.args...)
				scan, err2 := e.ReadView().QueryScan(zq.q, pr, zq.args...)
				check(tick, zq, got, scan, err1, err2)
			}
		}
		if inject != nil {
			inject(t, e, tick)
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestMaintainedMatchesScan is the contract-family member for query
// answers: maintained answers ≡ QueryScan every tick over the whole
// query zoo × the grid (Workers {1,4}, maintaining and on the rebuild
// seam).
func TestMaintainedMatchesScan(t *testing.T) {
	for _, c := range cells {
		t.Run(fmt.Sprintf("workers=%d/rebuild=%v", c.workers, c.rebuild), func(t *testing.T) {
			e := runMaintainedDifferential(t, c.workers, c.threshold(), 10, false, nil)
			// The cache must actually have worked both ways: some
			// answers survived ticks untouched, and the battle's churn
			// sent the non-divisible ones to rederive.
			if e.Stats.AnswerHits == 0 {
				t.Fatal("no answer classified untouched across 10 battle ticks")
			}
			if e.Stats.AnswerRederives == 0 {
				t.Fatal("no answer rederived across 10 battle ticks")
			}
			c.held(t, e)
		})
	}
}

// At threshold 1 every touched divisible answer is patched in place, and
// a patched answer must equal the from-scratch scan bit for bit — the
// exactness claim answers.go's refold design rests on.
func TestMaintainedAlwaysPatchBitExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		name := "workers=1"
		if workers == 4 {
			name = "workers=4"
		}
		t.Run(name, func(t *testing.T) {
			e := runMaintainedDifferential(t, workers, 1, 10, true, nil)
			if e.Stats.AnswerPatches == 0 {
				t.Fatal("threshold 1 never patched an answer in 10 battle ticks")
			}
		})
	}
}

// injectAnswerCommands is the command stream the command-injecting
// differential drives: set edits on columns the tick itself never
// rewrites (morale) and ones it does (health), plus a population change
// and a constant tune, so every delta interaction the command pipeline
// has — command rows merged into the delta, a voided diff, a rebuilt
// provider — faces the oracle.
func injectAnswerCommands(t *testing.T, e *Engine, tick int) {
	t.Helper()
	submit := func(cmds ...Command) {
		t.Helper()
		if err := e.Submit("diff", cmds...); err != nil {
			t.Fatalf("tick %d: submit: %v", tick, err)
		}
	}
	switch tick {
	case 2:
		// The sim never writes morale: only the command's edit can move
		// an answer that reads it.
		submit(Command{Op: OpSet, Key: 3, Col: "morale", Val: 11})
	case 4:
		submit(Command{Op: OpSet, Key: 5, Col: "health", Val: 2},
			Command{Op: OpSet, Key: 17, Col: "morale", Val: 1})
	case 6:
		submit(Command{Op: OpDespawn, Key: 9}) // population change: baseline drops
	case 7:
		submit(Command{Op: OpTune, Col: "_HEAL_AURA", Val: 5})
	case 8:
		submit(Command{Op: OpSet, Key: 42, Col: "morale", Val: 7})
	}
}

// TestMaintainedMatchesScanWithCommands re-runs the contract with
// externally injected commands in the stream. It is the regression net
// for stale hits after an edit: an OpSet once reached only the previous
// tick's delta, so the delta maintainAnswers classified against omitted
// the edit and the pre-command cached answer was served as a hit forever.
func TestMaintainedMatchesScanWithCommands(t *testing.T) {
	for _, c := range cells {
		t.Run(fmt.Sprintf("workers=%d/rebuild=%v", c.workers, c.rebuild), func(t *testing.T) {
			c.held(t, runMaintainedDifferential(t, c.workers, c.threshold(), 10, false, injectAnswerCommands))
		})
	}
}

// The distilled bug: a maintained answer over a column only commands
// ever write (the sim never touches morale) must see an OpSet edit the
// very next tick under Indexed, where the edit also feeds
// the delta the tick's provider is maintained with.
func TestMaintainedAnswerSeesCommandEdit(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 48, Indexed, 7, nil)
	q := compileQuery(t, `aggregate M(u) := sum(e.morale) as m over e;`)
	read := func() float64 {
		t.Helper()
		got, err := e.QueryMaintained(q, World())
		if err != nil {
			t.Fatal(err)
		}
		scan, err := e.ReadView().QueryScan(q, World())
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != scan[0] {
			t.Fatalf("tick %d: maintained sum(morale) %v != scan %v", e.TickCount(), got[0], scan[0])
		}
		return got[0]
	}
	// Prime the cache past the first, rebuilding tick so maintenance is
	// live.
	for i := 0; i < 3; i++ {
		read()
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	before := read()
	if err := e.Submit("cmd", Command{Op: OpSet, Key: 3, Col: "morale", Val: before + 100}); err != nil {
		t.Fatal(err)
	}
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	after := read()
	if after == before {
		t.Fatal("the set command did not move the answer; the stale-hit regression is not exercised")
	}
	// And the answer must stay correct on later quiet ticks too.
	for i := 0; i < 3; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		read()
	}
}

// A query whose read set no tick touches (player assignments never
// change) must hit the cache every tick, the first after New included —
// the published view is its baseline — with no patch and no rederive.
func TestMaintainedUntouchedQueryHits(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 13, nil)
	q := compileQuery(t, `aggregate A(u, p) := count(*) as n over e where e.player = p;`)
	first, err := e.QueryMaintained(q, World(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 8
	for i := 0; i < ticks; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		got, err := e.QueryMaintained(q, World(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != first[0] {
			t.Fatalf("tick %d: count by player drifted: %v -> %v", i, first[0], got[0])
		}
	}
	if e.Stats.AnswerHits != ticks {
		t.Fatalf("AnswerHits = %d, want one per tick (%d)", e.Stats.AnswerHits, ticks)
	}
	if e.Stats.AnswerPatches != 0 || e.Stats.AnswerRederives != 0 {
		t.Fatalf("AnswerPatches = %d, AnswerRederives = %d for a query no tick touches, want 0 and 0",
			e.Stats.AnswerPatches, e.Stats.AnswerRederives)
	}
}

// Maintained-answer state is bounded: probe fan-out within one query is
// capped, and answers unread for a few ticks die with their query cache
// entry.
func TestMaintainedAnswerEviction(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 48, Indexed, 1, nil)
	q := compileQuery(t, `
aggregate Here(u, r) :=
  count(*) as n, avg(e.posx) as cx
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r;`)
	for i := 0; i < maxAnswersPerQuery+10; i++ {
		if _, err := e.QueryMaintained(q, At(float64(i), 0), 5); err != nil {
			t.Fatal(err)
		}
	}
	e.qmu.Lock()
	ent := e.queries.cache[q]
	e.qmu.Unlock()
	if ent == nil {
		t.Fatal("query entry missing after maintained evaluations")
	}
	ent.amu.Lock()
	live := len(ent.answers)
	ent.amu.Unlock()
	if live > maxAnswersPerQuery {
		t.Fatalf("answer cache grew to %d entries (cap %d)", live, maxAnswersPerQuery)
	}

	// Stop reading; the query cache generation eviction must release the
	// whole entry — answers included — within a few ticks.
	for i := 0; i < queryEvictAfter+2; i++ {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	e.qmu.Lock()
	_, alive := e.queries.cache[q]
	e.qmu.Unlock()
	if alive {
		t.Fatal("unread query entry (and its maintained answers) survived generation eviction")
	}
}

// TestMaintainedNaNProbeEvicts: maintained answers are keyed by the bits
// of their probe and arguments. Keyed by float fields, an answer at a NaN
// was never found again, so every read added one; past the per-query cap
// the eviction loop picked such an entry, could not delete a NaN map key,
// and spun forever holding the query's lock — the 33rd read never
// returned. A probe position can no longer be NaN (non-finite At probes
// are refused, checked here), but an argument can: forty reads at
// distinct NaN arguments must return and leave at most the cap, and a
// repeated NaN read must find its answer again.
func TestMaintainedNaNProbeEvicts(t *testing.T) {
	e := newEngine(t, battleProg(t), 48, Indexed, 1, nil)
	q := compileQuery(t, `
aggregate Here(u, r) :=
  count(*) as n, avg(e.posx) as cx
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r;`)
	for _, at := range [][2]float64{{math.NaN(), 0}, {0, math.Inf(1)}, {math.Inf(-1), 3}} {
		if _, err := e.QueryMaintained(q, At(at[0], at[1]), 5); err == nil || !strings.Contains(err.Error(), "not a finite position") {
			t.Fatalf("At(%v, %v): err = %v, want the finite-position refusal", at[0], at[1], err)
		}
	}
	answers := func() int {
		e.qmu.Lock()
		ent := e.queries.cache[q]
		e.qmu.Unlock()
		ent.amu.Lock()
		defer ent.amu.Unlock()
		return len(ent.answers)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			nan := math.Float64frombits(0x7ff8000000000000 | uint64(i))
			if _, err := e.QueryMaintained(q, At(3, 0), nan); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("40 maintained reads at NaN arguments did not return")
	}
	if n := answers(); n > maxAnswersPerQuery {
		t.Fatalf("answer cache holds %d entries (cap %d)", n, maxAnswersPerQuery)
	}
	before := answers()
	for i := 0; i < 3; i++ {
		if _, err := e.QueryMaintained(q, At(3, 0), math.NaN()); err != nil {
			t.Fatal(err)
		}
	}
	if n := answers(); n > before+1 {
		t.Fatalf("three reads at one NaN added %d answers, want at most one", n-before)
	}
}
