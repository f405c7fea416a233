package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/lint"
)

// A stall on one reply must be charged to the requests queued behind it:
// they are still sent (the load is not thinned), and their latency,
// counted from the time they were DUE, includes the wait.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate     = 100 // one request every 10ms
		stallAt  = 5
		stall    = 300 * time.Millisecond
		interval = time.Second / rate
	)
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
	}))
	defer ts.Close()

	s := schedule{Rate: rate, Gen: func(int) request { return request{Method: "GET", Path: "/"} }}
	stop := make(chan struct{})
	time.AfterFunc(600*time.Millisecond, func() { close(stop) })
	samples := runOpenLoop(newConnClient(5*time.Second), ts.URL, s, time.Now(), stop)

	// 600ms at 100/s is 60 requests. A closed loop would have lost the
	// ~30 that fell due during the stall; the open loop sends them all.
	if len(samples) < 55 {
		t.Fatalf("sent %d requests in 600ms at %d/s: the stall thinned the load", len(samples), rate)
	}
	for i, sm := range samples {
		if !sm.OK {
			t.Fatalf("request %d failed", i)
		}
	}
	if got := samples[stallAt].latency(); got < stall {
		t.Errorf("stalled request latency %v < stall %v", got, stall)
	}
	// Request stallAt+k fell due k intervals into the stall and could not
	// leave before it ended: it waited out the remainder.
	for k := 1; k <= 20; k++ {
		sm := samples[stallAt+k]
		want := stall - time.Duration(k)*interval - 20*time.Millisecond
		if sm.latency() < want {
			t.Errorf("request %d (due %v into the stall): latency %v, want ≥ %v — the stall was not charged to it",
				stallAt+k, time.Duration(k)*interval, sm.latency(), want)
		}
		if sm.late() < want {
			t.Errorf("request %d: generator lateness %v, want ≥ %v", stallAt+k, sm.late(), want)
		}
	}
	// Before the stall nothing was late by more than scheduling noise.
	for i := 0; i < stallAt; i++ {
		if samples[i].latency() > 50*time.Millisecond {
			t.Errorf("request %d before the stall took %v", i, samples[i].latency())
		}
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	w := workloads[0].World
	gen := func(seed uint64) []byte {
		tr := traffic{seed: seed, session: "w", w: w}
		return append(tr.queries(500).bytes(300), tr.commands(200).bytes(300)...)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed produced two different request schedules")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds produced the same request schedule")
	}
	if n := bytes.Count(a, []byte("\n")); n != 600 {
		t.Errorf("schedule has %d entries, want 600", n)
	}
}

// Every command strictly raises the subscriber's sum, which is what lets
// one answer acknowledge every command up to it.
func TestCommandSumsStrictlyIncrease(t *testing.T) {
	tr := traffic{seed: 3, session: "w", w: workloads[0].World}
	if keys := tr.keys(); len(keys) != actorKeys {
		t.Fatalf("%d actor keys, want %d", len(keys), actorKeys)
	}
	sums := tr.sums(1000, 500)
	prev := 1000.0
	for i, s := range sums {
		if s <= prev {
			t.Fatalf("sum after command %d = %v, not above %v", i, s, prev)
		}
		prev = s
	}
}

func TestTracerSelfTime(t *testing.T) {
	// parent [0,100]; children [10,30] and [20,50] overlap, [90,120]
	// sticks out past the parent; a grandchild must not count twice.
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "a.inner", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6} {
		if self[id] != want {
			t.Errorf("span %d self time = %d, want %d", id, self[id], want)
		}
	}

	tr := newTracer()
	root := tr.begin("tick", 0, 7)
	kid := tr.begin("exec.build", root, 7)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != 7 || tr.spans[0].Parent != 0 {
		t.Errorf("parent links or request id lost: %+v", tr.spans)
	}
	if tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("child span not inside its parent: %+v", tr.spans)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := readJSON(path, &rows); err != nil || len(rows) != 2 || rows[0]["self_ns"] == nil {
		t.Errorf("span file: %v %v", rows, err)
	}

	var off *tracer // tracing off: same calls, nothing recorded
	off.end(off.begin("x", 0, 0))
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{9: 0, 99: 0, 100: 90, 199: 90, 200: 95, 999: 95, 1000: 99, 9999: 99, 10000: 99.9, 100000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // descending 1000…1: summarize must sort
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.P90 != 900 || d.P99 != 990 || d.TailPct != 99 || d.Tail != 990 {
		t.Errorf("summarize = %+v", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.TailPct != 50 || d.Tail != 2 {
		t.Errorf("a 3-sample dist should report only its median: %+v", d)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestPatrolScriptLintsClean(t *testing.T) {
	for _, d := range lint.Lint(patrolScript, lint.Options{
		Mode: lint.ModeScript, Schema: game.Schema(), Consts: game.Consts(), Categoricals: game.Categoricals(),
	}) {
		if d.Severity == lint.SevError {
			t.Errorf("patrol script: %s", d)
		}
	}
	if _, err := (world{Script: patrolScript, Units: 100}).standalone(1); err != nil {
		t.Errorf("patrol world does not build: %v", err)
	}
}

// smokeHarness is the -smoke configuration: in-process servers,
// scaled-down worlds, short windows.
func smokeHarness(t *testing.T, window time.Duration) (*harness, *benchFile) {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return &harness{root: root, window: window, smoke: true, outDir: t.TempDir(), launch: inprocLauncher{}}, bf
}

// All four workloads run end to end against in-process servers, pass
// their own output verification, and report every gated metric.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			h, bf := smokeHarness(t, time.Second)
			res, err := h.runOnce(spec, 5, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			var out bytes.Buffer
			printRun(io.Discard, bf, res, false)
			if err := printDriverLine(&out, bf, res, false); err != nil {
				t.Fatal(err)
			}
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]metric
			}
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(bf.EndToEnd) || line.Attempted < 1 {
				t.Errorf("driver line carries %d metrics, BENCHMARK.json lists %d", len(line.Metrics), len(bf.EndToEnd))
			}
			for _, def := range bf.EndToEnd {
				if m := line.Metrics[def.Name]; m.Value <= 0 || m.Unit != def.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", def.Name, m, def.Unit)
				}
			}
			if spec.Gateway && res.Metrics["migrate_p50_ms"].Value <= 0 {
				t.Error("gateway workload reported no migrations")
			}
		})
	}
}

// The traced run reports every per-layer metric BENCHMARK.json lists and
// writes its spans.
func TestSmokeTracedRun(t *testing.T) {
	t.Parallel()
	h, bf := smokeHarness(t, 400*time.Millisecond)
	res, err := h.runOnce(workloads[3], 5, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range bf.PerLayer {
		if _, ok := res.Metrics[def.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", def.Name)
		}
	}
	if err := printDriverLine(io.Discard, bf, res, true); err != nil {
		t.Error(err)
	}
	var spans []span
	if err := readJSON(filepath.Join(h.outDir, "trace-routed-push.json"), &spans); err != nil || len(spans) == 0 {
		t.Fatalf("span file: %d spans, %v", len(spans), err)
	}
	names := map[string]bool{}
	byID := map[int]span{}
	for _, s := range spans {
		names[s.Name], byID[s.ID] = true, s
	}
	for _, want := range []string{"tick", "exec.build", "exec.maintain", "algebra.effects", "engine.tick", "sgl.compile", "server.query_handler", "cluster.transfer"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
	for _, s := range spans {
		if s.Name == "exec.build" && byID[s.Parent].Name != "tick" {
			t.Errorf("exec.build span %d is not a child of its tick", s.ID)
		}
	}
}

func TestCompareGatesOnBounds(t *testing.T) {
	bf := &benchFile{EndToEnd: []metricDef{
		{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
		{Name: "unit_ticks_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	set := func(lat, rate float64) *runSet {
		s := &runSet{Workloads: map[string]*workloadRuns{}}
		for _, w := range workloads {
			s.Workloads[w.Name] = &workloadRuns{
				Median: map[string]float64{"query_p50_us": lat, "unit_ticks_per_s": rate},
				Unit:   map[string]string{"query_p50_us": "us", "unit_ticks_per_s": "1/s"},
			}
		}
		return s
	}
	var out strings.Builder
	if n := compare(&out, bf, set(100, 1000), set(109, 905)); n != 0 {
		t.Errorf("within bounds, yet %d exceeded:\n%s", n, out.String())
	}
	if n := compare(&out, bf, set(100, 1000), set(111, 1000)); n != len(workloads) {
		t.Errorf("latency 11%% worse on every workload: %d exceeded, want %d", n, len(workloads))
	}
	if n := compare(&out, bf, set(100, 1000), set(50, 880)); n != len(workloads) {
		t.Errorf("throughput 12%% worse on every workload: %d exceeded, want %d", n, len(workloads))
	}
	if !strings.Contains(out.String(), "EXCEEDS BOUND") {
		t.Error("table does not flag the exceeded metric")
	}
}
