package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/sgl/lint"
)

// hasCode reports whether any diagnostic in ds carries code.
func hasCode(ds []lint.Diagnostic, code string) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestCreateResponseCarriesWarnings pins the create-from-script lint
// surface: the 201 body is a CreateResponse whose warnings field is
// always an array, populated with the script's findings. The built-in
// battle script has exactly one pinned finding (SGL012: _TIME_RELOAD is
// consumed by the engine's tick rule, not the script text), and a
// script with a dead let adds SGL009 — while both worlds are created
// and usable.
func TestCreateResponseCarriesWarnings(t *testing.T) {
	ts, _ := newTestServer(t)

	var cr CreateResponse
	req := CreateRequest{Name: "warn-builtin", Units: 16, Density: 0.02, Seed: 3}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", req, &cr); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if cr.Warnings == nil {
		t.Fatal("create response warnings is null; must be an array")
	}
	if !hasCode(cr.Warnings, lint.CodeDeadConst) {
		t.Errorf("builtin script warnings = %v, want the pinned %s finding", cr.Warnings, lint.CodeDeadConst)
	}
	for _, d := range cr.Warnings {
		if d.Severity != lint.SevWarn {
			t.Errorf("created world carries %s at severity %q; a script that compiled can only warn", d.Code, d.Severity)
		}
	}

	// A custom script with a dead let: still creates (dead code is not an
	// error), and the response says so.
	deadLet := `
aggregate Foes(u) := count(*) over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let unused = u.health) perform Tag(u, Foes(u)) }`
	var cr2 CreateResponse
	req2 := CreateRequest{Name: "warn-deadlet", Units: 16, Density: 0.02, Seed: 3, Script: deadLet}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", req2, &cr2); code != http.StatusCreated {
		t.Fatalf("create with dead let: status %d", code)
	}
	if !hasCode(cr2.Warnings, lint.CodeDeadLet) {
		t.Errorf("dead-let script warnings = %v, want %s", cr2.Warnings, lint.CodeDeadLet)
	}
	// The warned world still runs.
	var st Status
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/warn-deadlet/step", StepRequest{Ticks: 2}, &st); code != http.StatusOK {
		t.Fatalf("step warned world: status %d", code)
	}
	if st.Tick != 2 {
		t.Fatalf("warned world tick = %d, want 2", st.Tick)
	}
}

// sseTyped reads raw SSE frames off a subscribe stream, preserving each
// frame's event type (sseEvents drops it). The channel carries
// (event, data) pairs and closes when the stream ends.
type typedEvent struct {
	event string
	data  string
}

func sseTypedEvents(t *testing.T, ctx context.Context, streamURL string) <-chan typedEvent {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("subscribe %s: status %d", streamURL, resp.StatusCode)
	}
	ch := make(chan typedEvent, 64)
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		ev := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				ch <- typedEvent{event: ev, data: line[len("data: "):]}
			}
		}
	}()
	return ch
}

// TestWarnedSubscriptionWarnsAndStreams pins a subscription's lint
// surface: subscribing to a query whose min() output falls back to a
// per-probe scan pushes a "warnings" event carrying SGL104 before the
// first answer, and the subscription still streams correct answers
// afterward.
func TestWarnedSubscriptionWarnsAndStreams(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "nondiv", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	minSrc := `aggregate Low(u, x) := min(e.health) as low over e where e.posx >= x;`
	ch := sseTypedEvents(t, ctx, ts.URL+"/v1/sessions/nondiv/subscribe?q="+url.QueryEscape(minSrc)+"&args=10")

	first, ok := <-ch
	if !ok {
		t.Fatal("stream closed before any event")
	}
	if first.event != "warnings" {
		t.Fatalf("first event = %q, want \"warnings\" before the initial answer", first.event)
	}
	var warns []lint.Diagnostic
	if err := json.Unmarshal([]byte(first.data), &warns); err != nil {
		t.Fatalf("decode warnings event %q: %v", first.data, err)
	}
	if !hasCode(warns, lint.CodeScanOutput) {
		t.Fatalf("warnings event = %v, want %s for a one-sided min() subscription", warns, lint.CodeScanOutput)
	}

	second, ok := <-ch
	if !ok {
		t.Fatal("stream closed before the initial answer")
	}
	if second.event != "answer" {
		t.Fatalf("second event = %q, want \"answer\"", second.event)
	}
	var ans SubscribeEvent
	if err := json.Unmarshal([]byte(second.data), &ans); err != nil {
		t.Fatalf("decode answer event %q: %v", second.data, err)
	}
	if ans.Error != "" || len(ans.Values) != 1 {
		t.Fatalf("initial answer = %+v, want one error-free value", ans)
	}

	// The warned query still computes the right answer: the pushed value
	// matches the naive-scan oracle, and the one-shot query path reports
	// the same SGL104 in its response.
	var qr QueryResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/nondiv/query", QueryRequest{Src: minSrc, Args: []float64{10}, Scan: true}, &qr); code != http.StatusOK {
		t.Fatalf("scan query: status %d", code)
	}
	if len(qr.Values) != 1 || qr.Values[0] != ans.Values[0] {
		t.Fatalf("scan oracle = %v, pushed initial answer = %v", qr.Values, ans.Values)
	}
	if !hasCode(qr.Warnings, lint.CodeScanOutput) {
		t.Errorf("query response warnings = %v, want %s", qr.Warnings, lint.CodeScanOutput)
	}
}
