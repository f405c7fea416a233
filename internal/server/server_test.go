package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/metrics"
)

// newTestServer spins up a server over a temp data dir.
func newTestServer(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	ts, _, reg := newTestServerFull(t)
	return ts, reg
}

// newTestServerWithDataDir is newTestServer exposing the data dir.
func newTestServerWithDataDir(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	ts, dir, _ := newTestServerFull(t)
	return ts, dir
}

func newTestServerFull(t *testing.T) (*httptest.Server, string, *Registry) {
	t.Helper()
	reg := NewRegistry()
	dir := t.TempDir()
	srv := New(reg, dir)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		reg.Close()
	})
	return ts, dir, reg
}

// try issues a JSON request and decodes the response body into out
// (skipped when nil), returning the status code; transport and decode
// problems come back as errors. Safe to call from any goroutine —
// unlike do, which may t.Fatal and so is only valid on the test
// goroutine (FailNow does not work from others).
func try(method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s response %q: %w", method, url, data, err)
		}
	}
	return resp.StatusCode, nil
}

// do issues a JSON request and decodes the response body into out
// (skipped when nil), returning the status code. Test-goroutine only
// (it t.Fatals on transport errors); goroutines use try.
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s response %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// create makes a small world and fails the test on error.
func create(t *testing.T, base, name string, extra func(*CreateRequest)) Status {
	t.Helper()
	req := CreateRequest{Name: name, Units: 64, Density: 0.02, Seed: 7}
	if extra != nil {
		extra(&req)
	}
	var st Status
	if code := do(t, http.MethodPost, base+"/v1/sessions", req, &st); code != http.StatusCreated {
		t.Fatalf("create %s: status %d", name, code)
	}
	return st
}

func TestCreateListGetDelete(t *testing.T) {
	ts, _ := newTestServer(t)
	st := create(t, ts.URL, "alpha", nil)
	if st.Name != "alpha" || st.Units != 64 || st.Tick != 0 {
		t.Errorf("created status = %+v", st)
	}

	var list []Status
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list) != 1 || list[0].Name != "alpha" {
		t.Errorf("list = %+v", list)
	}

	var got Status
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/alpha", nil, &got); code != http.StatusOK {
		t.Fatalf("get: %d", code)
	}
	if got.Name != "alpha" {
		t.Errorf("get = %+v", got)
	}

	if code := do(t, http.MethodDelete, ts.URL+"/v1/sessions/alpha", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/alpha", nil, nil); code != http.StatusNotFound {
		t.Errorf("get after delete: %d, want 404", code)
	}
}

func TestCreateRejectsBadScript(t *testing.T) {
	ts, _ := newTestServer(t)
	var e struct {
		Error string `json:"error"`
	}
	code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "bad", Units: 10, Script: "function main(u) { perform Undefined(u) }"}, &e)
	if code != http.StatusBadRequest {
		t.Fatalf("bad script: status %d", code)
	}
	if !strings.Contains(e.Error, "Undefined") {
		t.Errorf("error should name the problem, got %q", e.Error)
	}

	// Syntax error path too.
	code = do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "bad2", Units: 10, Script: "aggregate ???"}, &e)
	if code != http.StatusBadRequest {
		t.Errorf("syntax error: status %d", code)
	}
}

func TestCreateValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []CreateRequest{
		{Name: ""},                                // empty name
		{Name: "../escape"},                       // path-like name
		{Name: "a b"},                             // space
		{Name: "ok", Formation: "diagonal"},       // bad formation
		{Name: "ok", Mode: "quantum"},             // bad mode
		{Name: "ok", Restore: "../../etc/passwd"}, // path traversal
		{Name: "ok", Units: MaxWorldUnits + 1},    // oversized army (OOM guard)
		{Name: "ok", Units: 64, Density: 1},       // unplaceable density (hang guard)
		{Name: "ok", Mode: "naive", Units: 4001},  // naive past 4000² unit pairs a tick
	}
	for _, req := range cases {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", req, nil); code != http.StatusBadRequest {
			t.Errorf("create %+v: status %d, want 400", req, code)
		}
	}
	// The naive refusal comes before any army is generated, so even a
	// million-unit request answers at once, naming the limit; a naive
	// world at the limit builds.
	start := time.Now()
	var refused errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", CreateRequest{Name: "huge", Mode: "naive", Units: MaxWorldUnits}, &refused); code != http.StatusBadRequest ||
		time.Since(start) > time.Second || !strings.Contains(refused.Error, "over the limit 16000000 (4000 units)") {
		t.Errorf("naive create at %d units: status %d after %v, %q; want a 400 naming the limit within 1s", MaxWorldUnits, code, time.Since(start), refused.Error)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", CreateRequest{Name: "limit", Mode: "naive", Units: 4000}, nil); code != http.StatusCreated {
		t.Errorf("naive create at 4000 units: status %d, want 201", code)
	}
	// Unknown JSON fields are rejected: a misspelled knob, and one that no
	// longer exists (the maintenance fallback fraction is fixed).
	for _, body := range []string{`{"name":"x","wrokers":4}`, `{"name":"x","incthreshold":0.5}`} {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field in %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestDuplicateCreateConflicts(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "dup", nil)
	code := do(t, http.MethodPost, ts.URL+"/v1/sessions", CreateRequest{Name: "dup", Units: 64}, nil)
	if code != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", code)
	}
}

func TestUnknownSessionIs404(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/ghost"},
		{http.MethodDelete, "/v1/sessions/ghost"},
		{http.MethodPost, "/v1/sessions/ghost/step"},
		{http.MethodPost, "/v1/sessions/ghost/run"},
		{http.MethodPost, "/v1/sessions/ghost/stop"},
		{http.MethodPost, "/v1/sessions/ghost/query"},
		{http.MethodPost, "/v1/sessions/ghost/checkpoint"},
		{http.MethodGet, "/v1/sessions/ghost/checkpoint"},
	} {
		var body any
		if c.method == http.MethodPost {
			body = map[string]any{}
		}
		if code := do(t, c.method, ts.URL+c.path, body, nil); code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", c.method, c.path, code)
		}
	}
}

func TestStepAdvancesTicks(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "w", nil)
	var st Status
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/w/step", StepRequest{Ticks: 5}, &st); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	if st.Tick != 5 {
		t.Errorf("tick after step 5 = %d", st.Tick)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/w/step", StepRequest{Ticks: 0}, nil); code != http.StatusBadRequest {
		t.Errorf("step 0: status %d, want 400", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/w/step", StepRequest{Ticks: -3}, nil); code != http.StatusBadRequest {
		t.Errorf("step -3: status %d, want 400", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/w/step", StepRequest{Ticks: maxStepTicks + 1}, nil); code != http.StatusBadRequest {
		t.Errorf("step over cap: status %d, want 400", code)
	}
}

func TestRunStopClock(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "clock", nil)
	var st Status
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clock/run", RunRequest{TickRate: 0}, &st); code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}
	if !st.Running {
		t.Error("world should be running after /run")
	}
	// Step while the clock runs must conflict, and a second /run too.
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clock/step", StepRequest{Ticks: 1}, nil); code != http.StatusConflict {
		t.Errorf("step while running: %d, want 409", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clock/run", RunRequest{TickRate: 5}, nil); code != http.StatusConflict {
		t.Errorf("run while running: %d, want 409", code)
	}
	// The uncapped clock must make progress.
	deadline := time.Now().Add(5 * time.Second)
	for {
		do(t, http.MethodGet, ts.URL+"/v1/sessions/clock", nil, &st)
		if st.Tick > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clock made no progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clock/stop", map[string]any{}, &st); code != http.StatusOK {
		t.Fatalf("stop: %d", code)
	}
	if st.Running {
		t.Error("world should be stopped after /stop")
	}
	// Stopping again is a no-op, and stepping works again.
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clock/stop", map[string]any{}, nil); code != http.StatusOK {
		t.Errorf("double stop should be OK")
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clock/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
		t.Errorf("step after stop should work")
	}
}

const testCountQuery = `aggregate Pop(u) := count(*) as n, sum(e.health) as hp over e;`

func TestQueryForms(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "q", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/q/step", StepRequest{Ticks: 2}, nil)

	// World query.
	var qr QueryResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/q/query",
		QueryRequest{Src: testCountQuery}, &qr); code != http.StatusOK {
		t.Fatalf("world query: %d", code)
	}
	if qr.Name != "Pop" || len(qr.Values) != 2 || qr.Values[0] != 64 || qr.Tick != 2 {
		t.Errorf("world query = %+v", qr)
	}
	if qr.Outputs[0] != "n" || qr.Outputs[1] != "hp" {
		t.Errorf("outputs = %v", qr.Outputs)
	}

	// Positional query, indexed vs scan must agree.
	posQuery := `
aggregate Near(u, r) :=
  count(*)
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`
	x, y := 10.0, 10.0
	var idx, scan QueryResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/q/query",
		QueryRequest{Src: posQuery, X: &x, Y: &y, Args: []float64{8}}, &idx); code != http.StatusOK {
		t.Fatalf("positional query: %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/q/query",
		QueryRequest{Src: posQuery, X: &x, Y: &y, Args: []float64{8}, Scan: true}, &scan); code != http.StatusOK {
		t.Fatalf("scan query: %d", code)
	}
	if idx.Values[0] != scan.Values[0] {
		t.Errorf("indexed %v != scan %v", idx.Values, scan.Values)
	}

	// Unit query through a live unit's eyes.
	unit := int64(0)
	unitQuery := `
aggregate Foes(u) := count(*) over e where e.player <> u.player;`
	var ur QueryResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/q/query",
		QueryRequest{Src: unitQuery, Unit: &unit}, &ur); code != http.StatusOK {
		t.Fatalf("unit query: %d", code)
	}
	if ur.Values[0] != 32 {
		t.Errorf("unit query foes = %v, want 32", ur.Values)
	}
}

func TestQueryRejections(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "qr", nil)
	ghost := int64(10_000)
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"empty src", QueryRequest{}},
		{"action in query", QueryRequest{Src: `action A(u) := on e where e.key = u.key set damage = 1;`}},
		{"random in query", QueryRequest{Src: `aggregate R(u) := sum(Random(1)) over e;`}},
		{"syntax error", QueryRequest{Src: `aggregate ???`}},
		{"arg count mismatch", QueryRequest{Src: testCountQuery, Args: []float64{1, 2}}},
		{"unknown unit", QueryRequest{Src: `aggregate F(u) := count(*) over e where e.player <> u.player;`, Unit: &ghost}},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/qr/query", c.req, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (err %q)", c.name, code, e.Error)
		}
	}
}

func TestQueryCompileOnce(t *testing.T) {
	ts, reg := newTestServer(t)
	create(t, ts.URL, "cc", nil)
	w, _ := reg.Get("cc")
	q1, _, err := w.CompiledQuery(testCountQuery)
	if err != nil {
		t.Fatal(err)
	}
	q2, _, err := w.CompiledQuery(testCountQuery)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("same source should return the identical compiled query (fan-out sharing)")
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "src", func(r *CreateRequest) { r.Seed = 11 })
	do(t, http.MethodPost, ts.URL+"/v1/sessions/src/step", StepRequest{Ticks: 10}, nil)

	var ck CheckpointResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/src/checkpoint", CheckpointRequest{File: "mig.ckpt"}, &ck); code != http.StatusOK {
		t.Fatalf("checkpoint: %d", code)
	}
	if ck.File != "mig.ckpt" || ck.Tick != 10 {
		t.Errorf("checkpoint response = %+v", ck)
	}

	// Restore into a new session with different Workers (the migration
	// move; Workers is both determinism- and stats-neutral, so even the
	// checkpoint bytes must match), step both to the same tick, compare.
	var st Status
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "dst", Restore: "mig.ckpt", Workers: 2}, &st); code != http.StatusCreated {
		t.Fatalf("restore create: %d", code)
	}
	if st.Tick != 10 {
		t.Errorf("restored tick = %d, want 10", st.Tick)
	}
	do(t, http.MethodPost, ts.URL+"/v1/sessions/src/step", StepRequest{Ticks: 7}, nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/dst/step", StepRequest{Ticks: 7}, nil)

	a := fetchCheckpoint(t, ts.URL, "src")
	b := fetchCheckpoint(t, ts.URL, "dst")
	if !bytes.Equal(a, b) {
		t.Error("migrated world diverged from the original")
	}

	// The retired incremental field is accepted and ignored: a restore
	// carrying it is the same world, to the byte.
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "inc", Restore: "mig.ckpt", Incremental: true}, nil); code != http.StatusCreated {
		t.Fatalf("restore with the incremental field: %d", code)
	}
	do(t, http.MethodPost, ts.URL+"/v1/sessions/inc/step", StepRequest{Ticks: 7}, nil)
	if got := fetchCheckpoint(t, ts.URL, "inc"); !bytes.Equal(a, got) {
		t.Error("a restore carrying the ignored incremental field diverged from the original")
	}
}

// fetchCheckpoint streams a world's checkpoint bytes over HTTP.
func fetchCheckpoint(t *testing.T, base, name string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + name + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream checkpoint %s: %d", name, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckpointOfSteppingSession(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "live", nil)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/live/run", RunRequest{TickRate: 0}, nil); code != http.StatusOK {
		t.Fatal("run failed")
	}
	// Checkpoint repeatedly while the clock free-runs: every snapshot
	// must be consistent (restorable), and ticks must be monotone.
	var lastTick int64 = -1
	for i := 0; i < 5; i++ {
		var ck CheckpointResponse
		file := fmt.Sprintf("live-%d.ckpt", i)
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/live/checkpoint", CheckpointRequest{File: file}, &ck); code != http.StatusOK {
			t.Fatalf("checkpoint %d: %d", i, code)
		}
		if ck.Tick < lastTick {
			t.Errorf("checkpoint ticks went backwards: %d after %d", ck.Tick, lastTick)
		}
		lastTick = ck.Tick
		name := fmt.Sprintf("resurrect-%d", i)
		var st Status
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
			CreateRequest{Name: name, Restore: file}, &st); code != http.StatusCreated {
			t.Fatalf("restore of live checkpoint %d failed: %d", i, code)
		}
	}
	do(t, http.MethodPost, ts.URL+"/v1/sessions/live/stop", map[string]any{}, nil)
}

func TestConcurrentCreateDeleteRaces(t *testing.T) {
	ts, reg := newTestServer(t)
	// Hammer the same names from many goroutines: creates either succeed
	// (201) or conflict (409), deletes either succeed (200) or miss
	// (404); nothing else, and the registry stays consistent.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("race-%d", g%3) // 3 contested names
			for i := 0; i < 8; i++ {
				code, err := try(http.MethodPost, ts.URL+"/v1/sessions",
					CreateRequest{Name: name, Units: 16, Density: 0.05}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if code != http.StatusCreated && code != http.StatusConflict {
					t.Errorf("racy create: status %d", code)
				}
				code, err = try(http.MethodDelete, ts.URL+"/v1/sessions/"+name, nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if code != http.StatusOK && code != http.StatusNotFound {
					t.Errorf("racy delete: status %d", code)
				}
			}
		}(g)
	}
	wg.Wait()
	// Registry invariant: list is well-formed and every listed world Gets.
	for _, st := range reg.List() {
		if _, ok := reg.Get(st.Name); !ok {
			t.Errorf("listed world %q not gettable", st.Name)
		}
	}
}

// Regression: a vanishingly small tick rate must behave as nearly
// paused, not overflow the period math into a negative duration and
// busy-loop at full speed.
func TestTinyTickRateDoesNotBusyLoop(t *testing.T) {
	reg := NewRegistry()
	w, err := reg.Create("slow", WorldSpec{Units: 16, Density: 0.05, Mode: engine.Indexed})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Delete("slow")
	if err := w.StartClock(1e-12); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	w.StopClock()
	// The loop ticks once before its first wait; anything more means the
	// pacing branch never engaged.
	if got := w.Session().Tick(); got > 1 {
		t.Errorf("tiny tick rate ran %d ticks in 150ms (busy loop)", got)
	}
}

// Regression: a StartClock racing Delete must never leave an orphaned
// clock goroutine (Delete marks the world, then stops; StartClock on a
// deleted world refuses).
func TestStartClockAfterDeleteRefused(t *testing.T) {
	reg := NewRegistry()
	w, err := reg.Create("gone", WorldSpec{Units: 16, Density: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !reg.Delete("gone") {
		t.Fatal("delete failed")
	}
	if err := w.StartClock(0); err == nil {
		w.StopClock()
		t.Fatal("StartClock on a deleted world must refuse")
	}
	if w.Running() {
		t.Error("deleted world has a running clock")
	}
}

// Regression: StartClock must refuse while a synchronous Step is in
// flight — otherwise the client's "advance exactly N ticks" overlaps
// the clock and the returned tick is meaningless.
func TestStartClockDuringStepRefused(t *testing.T) {
	reg := NewRegistry()
	w, err := reg.Create("busy", WorldSpec{Units: 2000, Density: 0.02, Mode: engine.Indexed})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Delete("busy")

	// The per-tick hook is a deterministic "step is in flight" signal: it
	// runs inside Session.Step, after World.Step marked itself stepping.
	started := make(chan struct{})
	var once sync.Once
	w.Session().OnTick(func(int64, engine.RunStats) {
		once.Do(func() { close(started) })
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Step(10); err != nil {
			t.Error(err)
		}
	}()
	<-started
	if err := w.StartClock(0); err == nil {
		w.StopClock()
		t.Error("clock started while a synchronous step was in flight")
	}
	<-done
	// Step finished; starting now is legitimate.
	if err := w.StartClock(0); err != nil {
		t.Fatalf("StartClock after step: %v", err)
	}
	w.StopClock()
}

// Regression: concurrent synchronous Steps serialize, so the tick
// counter matches the world's real clock instead of double-counting
// each caller's view of the shared tick delta.
func TestConcurrentStepsCountTicksExactly(t *testing.T) {
	reg := NewRegistry()
	w, err := reg.Create("acct", WorldSpec{Units: 64, Density: 0.02, Mode: engine.Indexed})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Delete("acct")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Step(5); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := w.Session().Tick(); got != 20 {
		t.Fatalf("world tick = %d, want 20", got)
	}
	if v := reg.Metrics.Counter("sgld_ticks_total", metrics.L("session", "acct")).Value(); v != 20 {
		t.Errorf("sgld_ticks_total = %v, want 20", v)
	}
}

// A checkpoint is self-contained: the write produces exactly one file
// (no .sgl sidecar), and restoring it needs nothing but the file — the
// script travels inside the stream. A custom (non-battle) script must
// survive the round trip, which is exactly what the sidecar used to
// carry.
func TestRestoreSelfContained(t *testing.T) {
	ts, dir, registry := newTestServerFull(t)
	custom := `
aggregate N(u) := count(*) over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	orig := create(t, ts.URL, "orig", func(r *CreateRequest) { r.Script = custom })
	_ = orig
	do(t, http.MethodPost, ts.URL+"/v1/sessions/orig/step", StepRequest{Ticks: 3}, nil)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/orig/checkpoint", CheckpointRequest{File: "solo.ckpt"}, nil); code != http.StatusOK {
		t.Fatal("checkpoint failed")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sgl") {
			t.Fatalf("checkpoint wrote a sidecar %q; the format is self-contained now", e.Name())
		}
	}
	var st Status
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "back", Restore: "solo.ckpt"}, &st); code != http.StatusCreated {
		t.Fatalf("restore of self-contained checkpoint: status %d, want 201", code)
	}
	if st.Tick != 3 {
		t.Errorf("restored tick = %d, want 3", st.Tick)
	}
	// The restored world runs the embedded custom script, not the battle
	// default: its canonical source must equal the donor world's.
	donor, _ := registry.Get("orig")
	wd, ok := registry.Get("back")
	if !ok {
		t.Fatal("restored world missing from registry")
	}
	if wd.Script() != donor.Script() {
		t.Errorf("restored world script differs from the embedded custom script")
	}
	if strings.Contains(wd.Script(), "knightMain") {
		t.Errorf("restored world fell back to the battle script")
	}
}

// Regression: a maximum-length session name must still round-trip
// through its derived "<name>.ckpt" checkpoint and back through the
// restore API.
func TestMaxLengthNameCheckpointRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	long := strings.Repeat("n", 120)
	create(t, ts.URL, long, nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/"+long+"/step", StepRequest{Ticks: 2}, nil)
	var ck CheckpointResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+long+"/checkpoint", CheckpointRequest{}, &ck); code != http.StatusOK {
		t.Fatalf("checkpoint with derived name: %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "back", Restore: ck.File}, nil); code != http.StatusCreated {
		t.Errorf("restore of derived-name checkpoint: status %d, want 201", code)
	}
}

// A checkpoint in an older layout is a 400 on both restore endpoints,
// with an error naming sglc -upgrade — the daemon reads the current
// layout alone — and no script on the request changes that: a restore
// that carries one is a 400 too.
func TestRestoreLegacyCheckpointNamesUpgrade(t *testing.T) {
	ts, dir, _ := newTestServerFull(t)
	v1, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "old.ckpt"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "v1", Restore: "old.ckpt"}, &e); code != http.StatusBadRequest ||
		!strings.Contains(e.Error, "sglc -upgrade") {
		t.Fatalf("restore of a v1 file: status %d %q, want 400 naming sglc -upgrade", code, e.Error)
	}
	if code := putCheckpoint(t, ts.URL+"/v1/sessions/v1/checkpoint", v1, &e); code != http.StatusBadRequest ||
		!strings.Contains(e.Error, "sglc -upgrade") {
		t.Fatalf("PUT of a v1 stream: status %d %q, want 400 naming sglc -upgrade", code, e.Error)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "v1", Restore: "old.ckpt", Script: game.Script}, nil); code != http.StatusBadRequest {
		t.Fatalf("restore with a script: status %d, want 400", code)
	}
	create(t, ts.URL, "donor", nil)
	ck := fetchCheckpoint(t, ts.URL, "donor")
	if code := putCheckpoint(t, ts.URL+"/v1/sessions/v4/checkpoint?script=x", ck, nil); code != http.StatusBadRequest {
		t.Fatalf("PUT with ?script=: status %d, want 400", code)
	}
}

// Regression: restore requests must not silently drop fresh-world
// fields — the checkpoint carries the spec.
func TestRestoreRejectsFreshWorldFields(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "donor", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/donor/checkpoint", CheckpointRequest{File: "d.ckpt"}, nil)
	for _, req := range []CreateRequest{
		{Name: "r1", Restore: "d.ckpt", Units: 500},
		{Name: "r2", Restore: "d.ckpt", Seed: 9},
		{Name: "r3", Restore: "d.ckpt", Mode: "naive"},
		{Name: "r4", Restore: "d.ckpt", Formation: "scattered"},
		{Name: "r5", Restore: "d.ckpt", Script: game.Script},
	} {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", req, nil); code != http.StatusBadRequest {
			t.Errorf("restore with fresh-world field %+v: status %d, want 400", req, code)
		}
	}
	// Tuning fields stay legal on restore.
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "ok", Restore: "d.ckpt", Workers: 2, Incremental: true}, nil); code != http.StatusCreated {
		t.Errorf("restore with tuning only: status %d, want 201", code)
	}
}

// Regression: concurrent checkpoints of the same file must each write a
// complete, restorable file (per-call temp names — a shared temp path
// once let two writers interleave).
func TestConcurrentCheckpointsStayRestorable(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "cc", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/cc/run", RunRequest{TickRate: 0}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if _, err := try(http.MethodPost, ts.URL+"/v1/sessions/cc/checkpoint", CheckpointRequest{File: "cc.ckpt"}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	do(t, http.MethodPost, ts.URL+"/v1/sessions/cc/stop", map[string]any{}, nil)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "cc2", Restore: "cc.ckpt"}, nil); code != http.StatusCreated {
		t.Errorf("restore after concurrent checkpoints: status %d, want 201", code)
	}
}

// Regression: deleting a world removes its labeled metric series, so
// session churn cannot grow /metrics without bound.
func TestDeleteRemovesMetricSeries(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "ephemeral", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/ephemeral/step", StepRequest{Ticks: 2}, nil)
	do(t, http.MethodDelete, ts.URL+"/v1/sessions/ephemeral", nil, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(data), `session="ephemeral"`) {
		t.Errorf("deleted session still in /metrics:\n%s", data)
	}
}

func TestDeleteStopsRunningClock(t *testing.T) {
	ts, reg := newTestServer(t)
	create(t, ts.URL, "doomed", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/doomed/run", RunRequest{TickRate: 0}, nil)
	w, _ := reg.Get("doomed")
	if code := do(t, http.MethodDelete, ts.URL+"/v1/sessions/doomed", nil, nil); code != http.StatusOK {
		t.Fatalf("delete running world: %d", code)
	}
	if w.Running() {
		t.Error("deleted world's clock still running")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "m", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/m/step", StepRequest{Ticks: 3}, nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/m/query", QueryRequest{Src: testCountQuery}, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	out := string(data)
	for _, want := range []string{
		`sgld_worlds 1`,
		`sgld_sessions_created_total 1`,
		`sgld_ticks_total{session="m"} 3`,
		`sgld_queries_total{session="m"} 1`,
		// The engine's own total, copied at scrape time.
		`sgld_query_oneshot_total{session="m"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}
}

func TestValidNameTable(t *testing.T) {
	for name, want := range map[string]bool{
		"alpha":                  true,
		"a":                      true,
		"w0.ckpt":                true,
		"A-b_c.9":                true,
		"":                       false,
		".hidden":                false,
		"-flag":                  false,
		"..":                     false,
		"a/b":                    false,
		"a\\b":                   false,
		"a b":                    false,
		strings.Repeat("x", 121): false,
		strings.Repeat("x", 120): true,
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

// The command endpoint end to end: inject every op, step, and observe
// the effects — a spawned unit queryable by key, a despawned one gone,
// the population reflecting both, and the journal recording all of it.
func TestCommandsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "cmd", nil)

	var cr CommandsResponse
	code := do(t, http.MethodPost, ts.URL+"/v1/sessions/cmd/commands", CommandsRequest{
		Origin: "player-1",
		Commands: []WireCommand{
			{Op: "spawn", Key: 9000, Player: 0, UnitType: 1, X: 40, Y: 40},
			{Op: "despawn", Key: 3},
			{Op: "set", Key: 5, Col: "health", Val: 4},
			{Op: "tune", Name: "_HEAL_AURA", Val: 7},
		},
	}, &cr)
	if code != http.StatusOK {
		t.Fatalf("commands: status %d", code)
	}
	if cr.Accepted != 4 || cr.Tick != 0 {
		t.Errorf("response = %+v, want accepted 4 at tick 0", cr)
	}
	// Nothing applies until the next step's commit.
	var st Status
	do(t, http.MethodGet, ts.URL+"/v1/sessions/cmd", nil, &st)
	if st.Units != 64 {
		t.Errorf("units before tick = %d, want 64", st.Units)
	}
	do(t, http.MethodPost, ts.URL+"/v1/sessions/cmd/step", StepRequest{Ticks: 1}, &st)
	if st.Units != 64 { // -1 despawn +1 spawn
		t.Errorf("units after tick = %d, want 64", st.Units)
	}
	// The spawned unit answers unit-probe queries.
	unit := int64(9000)
	var qr QueryResponse
	code = do(t, http.MethodPost, ts.URL+"/v1/sessions/cmd/query", QueryRequest{
		Src:  "aggregate Self(u) := max(e.health) as hp over e where e.key = u.key;",
		Unit: &unit,
	}, &qr)
	if code != http.StatusOK {
		t.Fatalf("query spawned unit: %d", code)
	}
	// The despawned unit is gone.
	gone := int64(3)
	code = do(t, http.MethodPost, ts.URL+"/v1/sessions/cmd/query", QueryRequest{
		Src:  "aggregate Self(u) := max(e.health) as hp over e where e.key = u.key;",
		Unit: &gone,
	}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("query despawned unit: status %d, want 400", code)
	}

	var jr JournalResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/cmd/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal: %d", code)
	}
	if len(jr.Entries) != 4 || jr.Tick != 1 {
		t.Fatalf("journal = %d entries at tick %d, want 4 at 1", len(jr.Entries), jr.Tick)
	}
	if jr.Entries[0].Origin != "player-1" || jr.Entries[0].Cmd.Op != engine.OpSpawn {
		t.Errorf("journal head = %+v", jr.Entries[0])
	}
}

// A command's acknowledgment names the tick of the read view it was
// admitted against. On a paused world the batch is stamped one past it,
// the view one step publishes carries that stamp as its tick and shows
// the batch, and the view the acknowledgment named does not.
func TestCommandAckTickAndStamp(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "ack", nil)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/ack/step", StepRequest{Ticks: 3}, nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	var cr CommandsResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/ack/commands", CommandsRequest{
		Origin:   "player-1",
		Commands: []WireCommand{{Op: "set", Key: 5, Col: "health", Val: 77}},
	}, &cr); code != http.StatusOK {
		t.Fatalf("commands: %d", code)
	}
	if cr.Accepted != 1 || cr.Tick != 3 {
		t.Fatalf("response = %+v, want accepted 1 at tick 3", cr)
	}
	unit := int64(5)
	health := func() QueryResponse {
		t.Helper()
		var qr QueryResponse
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/ack/query", QueryRequest{
			Src:  "aggregate Self(u) := max(e.health) as hp over e where e.key = u.key;",
			Unit: &unit,
		}, &qr); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
		return qr
	}
	if qr := health(); qr.Tick != cr.Tick || qr.Values[0] == 77 {
		t.Fatalf("before the step: %+v; view %d must not show the batch", qr, cr.Tick)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/ack/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	// The step's commit drained the batch into the journal.
	var jr JournalResponse
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/ack/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal: %d", code)
	}
	if len(jr.Entries) != 1 || jr.Entries[0].Tick != cr.Tick+1 {
		t.Fatalf("journal = %+v, want the batch stamped %d", jr.Entries, cr.Tick+1)
	}
	if qr := health(); qr.Tick != jr.Entries[0].Tick || qr.Values[0] != 77 {
		t.Fatalf("after one step: %+v; view %d must show the batch", qr, jr.Entries[0].Tick)
	}
}

// Command endpoint validation: bad ops, keys beyond 2^53, oversized
// batches, empty batches, unknown sessions and invalid targets are all
// 4xx.
func TestCommandsEndpointValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "val", nil)
	post := func(req CommandsRequest) int {
		t.Helper()
		return do(t, http.MethodPost, ts.URL+"/v1/sessions/val/commands", req, nil)
	}
	if code := post(CommandsRequest{}); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", code)
	}
	if code := post(CommandsRequest{Commands: []WireCommand{{Op: "explode", Key: 1}}}); code != http.StatusBadRequest {
		t.Errorf("unknown op: %d, want 400", code)
	}
	if code := post(CommandsRequest{Commands: []WireCommand{{Op: "spawn", Key: 1, Player: 7}}}); code != http.StatusBadRequest {
		t.Errorf("bad player: %d, want 400", code)
	}
	if code := post(CommandsRequest{Commands: []WireCommand{{Op: "spawn", Key: 1, UnitType: 9}}}); code != http.StatusBadRequest {
		t.Errorf("bad unittype: %d, want 400", code)
	}
	if code := post(CommandsRequest{Commands: []WireCommand{{Op: "set", Key: 1, Col: "nosuch", Val: 1}}}); code != http.StatusBadRequest {
		t.Errorf("unknown column: %d, want 400", code)
	}
	// Key 2^53+1 is no float64: as one it names unit 2^53.
	for _, wc := range []WireCommand{
		{Op: "despawn", Key: 1<<53 + 1},
		{Op: "set", Key: 1<<53 + 1, Col: "health", Val: 1},
		{Op: "spawn", Key: 1<<53 + 1},
	} {
		if code := post(CommandsRequest{Commands: []WireCommand{wc}}); code != http.StatusBadRequest {
			t.Errorf("%s of key 2^53+1: %d, want 400", wc.Op, code)
		}
	}
	big := make([]WireCommand, MaxCommandsPerRequest+1)
	for i := range big {
		big[i] = WireCommand{Op: "set", Key: 1, Col: "health", Val: 1}
	}
	if code := post(CommandsRequest{Commands: big}); code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d, want 400", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/ghost/commands",
		CommandsRequest{Commands: []WireCommand{{Op: "despawn", Key: 1}}}, nil); code != http.StatusNotFound {
		t.Errorf("unknown session: %d, want 404", code)
	}
	// A valid batch afterwards proves the rejected ones left no residue.
	var jr JournalResponse
	do(t, http.MethodGet, ts.URL+"/v1/sessions/val/journal", nil, &jr)
	if len(jr.Entries) != 0 {
		t.Errorf("rejected batches reached the journal: %d entries", len(jr.Entries))
	}
}

// A served world's interactive state — journal, pending commands, tuned
// constants — survives checkpoint-to-file and restore, and the restored
// world continues from it (the serving half of contract #5's mid-stream
// story).
func TestServedCommandsSurviveRestore(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "donor", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/donor/commands", CommandsRequest{
		Origin:   "p1",
		Commands: []WireCommand{{Op: "set", Key: 2, Col: "morale", Val: 11}},
	}, nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/donor/step", StepRequest{Ticks: 2}, nil)
	// Pending at checkpoint time:
	do(t, http.MethodPost, ts.URL+"/v1/sessions/donor/commands", CommandsRequest{
		Origin:   "p1",
		Commands: []WireCommand{{Op: "despawn", Key: 4}},
	}, nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/donor/checkpoint", CheckpointRequest{File: "donor.ckpt"}, nil)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions",
		CreateRequest{Name: "heir", Restore: "donor.ckpt"}, nil); code != http.StatusCreated {
		t.Fatal("restore failed")
	}
	var jr JournalResponse
	do(t, http.MethodGet, ts.URL+"/v1/sessions/heir/journal", nil, &jr)
	if len(jr.Entries) != 2 {
		t.Fatalf("restored journal has %d entries, want 2", len(jr.Entries))
	}
	var st Status
	do(t, http.MethodPost, ts.URL+"/v1/sessions/heir/step", StepRequest{Ticks: 1}, &st)
	if st.Units != 63 {
		t.Errorf("pending despawn did not apply after restore: units = %d, want 63", st.Units)
	}
}

// Script returns the SGL source this world runs, in the engine's
// canonical printed form (the same text checkpoint v2 embeds).
func (w *World) Script() string { return w.script }

// Running reports whether the clock goroutine is live.
func (w *World) Running() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.clk != nil
}
