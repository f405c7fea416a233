package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/workload"
)

// Query sources the subscription tests share: a world probe's sums and
// a positional window count.
const (
	posSumSrc = `aggregate Pos(u) := sum(e.posx) as sx, sum(e.posy) as sy over e;`
	zoneSrc   = `aggregate Zone(u, r) :=
  count(*) over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`
)

// sseEvents opens a subscribe stream and feeds its decoded "answer"
// events into the returned channel (closed when the stream ends).
// Cancel ctx to release the server handler.
func sseEvents(t *testing.T, ctx context.Context, streamURL string) <-chan SubscribeEvent {
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
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe %s: status %d: %s", streamURL, resp.StatusCode, body)
	}
	ch := make(chan SubscribeEvent, 64)
	go func() {
		defer resp.Body.Close()
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev SubscribeEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				t.Errorf("decode SSE event %q: %v", line, err)
				return
			}
			ch <- ev
		}
	}()
	return ch
}

// TestSubscribePushedMatchesPolled is the push-path differential: the
// event stream a subscriber receives must be exactly the changes in the
// polled indexed /query sequence — one event per tick whose answer
// differs from the previous tick's, carrying that tick's values bit for
// bit, and no events for unchanged ticks. Runs both probe forms (plain and
// positional) over a paused-clock world stepped one tick at a time, so
// every tick boundary is observed by both paths.
func TestSubscribePushedMatchesPolled(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "sub", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	const ticks = 20
	x, y := 28.0, 28.0
	type stream struct {
		name string
		poll QueryRequest
		ch   <-chan SubscribeEvent
	}
	streams := []*stream{
		{
			name: "plain",
			poll: QueryRequest{Src: posSumSrc},
		},
		{
			name: "at",
			poll: QueryRequest{Src: zoneSrc, X: &x, Y: &y, Args: []float64{20}},
		},
	}
	base := ts.URL + "/v1/sessions/sub/subscribe?q="
	streams[0].ch = sseEvents(t, ctx, base+url.QueryEscape(posSumSrc))
	streams[1].ch = sseEvents(t, ctx, base+url.QueryEscape(zoneSrc)+"&x=28&y=28&args=20")

	// Poll at every tick 0..ticks, stepping one tick at a time so
	// subscribers see every boundary.
	polled := make([][][]float64, len(streams))
	pollNow := func(tick int) {
		for i, s := range streams {
			var qr QueryResponse
			if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/sub/query", s.poll, &qr); code != http.StatusOK {
				t.Fatalf("%s: poll at tick %d: status %d", s.name, tick, code)
			}
			if qr.Tick != int64(tick) {
				t.Fatalf("%s: poll tick = %d, want %d", s.name, qr.Tick, tick)
			}
			polled[i] = append(polled[i], qr.Values)
		}
	}
	pollNow(0)
	for tk := 1; tk <= ticks; tk++ {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/sub/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step %d: status %d", tk, code)
		}
		pollNow(tk)
	}

	for i, s := range streams {
		// Expected pushes: the initial answer plus every tick whose polled
		// value changed.
		want := []int{0}
		for tk := 1; tk <= ticks; tk++ {
			if !sameValues(polled[i][tk], polled[i][tk-1]) {
				want = append(want, tk)
			}
		}
		if s.name == "plain" && len(want) < 10 {
			t.Fatalf("plain: only %d change ticks out of %d — units should move every tick", len(want)-1, ticks)
		}

		deadline := time.After(3 * time.Second)
		var evs []SubscribeEvent
		for len(evs) < len(want) {
			select {
			case ev, ok := <-s.ch:
				if !ok {
					t.Fatalf("%s: stream closed after %d events, want %d", s.name, len(evs), len(want))
				}
				evs = append(evs, ev)
			case <-deadline:
				t.Fatalf("%s: got %d events, want %d (timed out)", s.name, len(evs), len(want))
			}
		}
		select {
		case ev := <-s.ch:
			t.Errorf("%s: extra event beyond the %d changes: %+v", s.name, len(want), ev)
		case <-time.After(200 * time.Millisecond):
		}

		for j, ev := range evs {
			if ev.Resync {
				t.Errorf("%s: event %d resynced — a promptly drained subscriber must never drop", s.name, j)
			}
			if ev.Error != "" {
				t.Errorf("%s: event %d carries error %q", s.name, j, ev.Error)
			}
			if ev.Tick != int64(want[j]) {
				t.Errorf("%s: event %d at tick %d, want %d", s.name, j, ev.Tick, want[j])
				continue
			}
			if !sameValues(ev.Values, polled[i][want[j]]) {
				t.Errorf("%s: tick %d pushed %v, polled %v", s.name, want[j], ev.Values, polled[i][want[j]])
			}
		}
	}
}

// TestSubscriberSeesCommandInItsTick: a sum(e.morale) subscriber sees an
// OpSet — on a column no tick writes, so only the command moves the
// answer — in the push for the tick the command lands in, the one past
// the tick its acknowledgement names, and that push is the answer a
// poll of the same tick gets.
func TestSubscriberSeesCommandInItsTick(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "morale", nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const src = `aggregate Morale(u) := sum(e.morale) as m over e;`
	ch := sseEvents(t, ctx, ts.URL+"/v1/sessions/morale/subscribe?q="+url.QueryEscape(src))
	next := func() SubscribeEvent {
		t.Helper()
		select {
		case ev := <-ch:
			return ev
		case <-time.After(3 * time.Second):
			t.Fatal("no push within 3s")
		}
		return SubscribeEvent{}
	}
	step := func() {
		t.Helper()
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/morale/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step: status %d", code)
		}
	}
	first := next()
	step()
	var ack CommandsResponse
	cmd := CommandsRequest{Commands: []WireCommand{{Op: "set", Key: 3, Col: "morale", Val: 1e6}}}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/morale/commands", cmd, &ack); code != http.StatusOK {
		t.Fatalf("commands: status %d", code)
	}
	step()
	ev := next()
	var qr QueryResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/morale/query", QueryRequest{Src: src}, &qr); code != http.StatusOK {
		t.Fatalf("poll: status %d", code)
	}
	if ev.Tick != ack.Tick+1 || qr.Tick != ev.Tick {
		t.Fatalf("pushed at tick %d, polled at %d; the set acknowledged at %d lands at %d", ev.Tick, qr.Tick, ack.Tick, ack.Tick+1)
	}
	if ev.Values[0] < 1e6 || ev.Values[0] == first.Values[0] || !sameValues(ev.Values, qr.Values) {
		t.Fatalf("push %v after the set (initial %v), poll %v", ev.Values, first.Values, qr.Values)
	}
}

// TestSubscribeBackpressureDropAndResync pins the backpressure policy: a
// subscriber that never drains must not block the tick — events beyond
// the channel buffer are dropped and counted — and the first push after
// the drop is unconditional and marked Resync.
func TestSubscribeBackpressureDropAndResync(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	wd, err := reg.Create("bp", WorldSpec{
		Units: 64, Density: 0.02, Seed: 7,
		Formation: workload.BattleLines, Mode: engine.Indexed,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := wd.CompiledQuery(posSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	sub, initial, err := wd.subscribe(subSpec{q: q})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.unsubscribe(sub)
	if initial.Tick != 0 || len(initial.Values) != 2 {
		t.Fatalf("initial event = %+v", initial)
	}

	// 30 ticks against a buffer of subEventBuffer: Step must return (the
	// nonblocking send is the whole point) with the overflow counted.
	if err := wd.Step(30); err != nil {
		t.Fatal(err)
	}
	if v := wd.pushDrops.Value(); v == 0 {
		t.Fatal("no drops after 30 undrained ticks — backpressure never engaged")
	}
	buffered := 0
	for {
		select {
		case <-sub.ch:
			buffered++
			continue
		default:
		}
		break
	}
	if buffered != subEventBuffer {
		t.Errorf("drained %d buffered events, want a full buffer of %d", buffered, subEventBuffer)
	}

	// Caught up: the next push must come through even if the value did
	// not change, flagged as a resync.
	if err := wd.Step(1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.ch:
		if !ev.Resync {
			t.Errorf("first post-drop event not marked resync: %+v", ev)
		}
		if ev.Tick != 31 {
			t.Errorf("resync event at tick %d, want 31", ev.Tick)
		}
	default:
		t.Fatal("no resync event after catching up")
	}

	// Resynced: subsequent pushes are ordinary change events again.
	for tk := 0; tk < 20; tk++ {
		if err := wd.Step(1); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-sub.ch:
			if ev.Resync {
				t.Errorf("post-resync event still flagged resync: %+v", ev)
			}
			return
		default:
		}
	}
	t.Fatal("no change event in 20 ticks after resync")
}

// TestSubscribeChurnDuringTicks races subscriber registration and
// teardown against a running clock's notify fan-out — the window where
// a tick can land between Subscribe's initial evaluation and its
// registration, and where notify must not hold the subscriber-set lock
// across the evaluation sweep. Under -race this pins the per-subscriber
// locking; the assertions pin freshness: on a world whose answer moves
// every tick, every subscriber must receive a push newer than its
// initial answer, and never one older.
func TestSubscribeChurnDuringTicks(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	wd, err := reg.Create("churn", WorldSpec{
		Units: 64, Density: 0.02, Seed: 11,
		Formation: workload.BattleLines, Mode: engine.Indexed,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := wd.CompiledQuery(posSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := wd.StartClock(200); err != nil {
		t.Fatal(err)
	}
	defer wd.StopClock()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub, initial, err := wd.subscribe(subSpec{q: q})
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case ev := <-sub.ch:
					if ev.Tick <= initial.Tick {
						t.Errorf("pushed event tick %d not newer than initial tick %d", ev.Tick, initial.Tick)
					}
				case <-time.After(10 * time.Second):
					t.Error("no push within 10s of subscribing on a running clock")
				}
				wd.unsubscribe(sub)
			}
		}()
	}
	wg.Wait()
}

// TestSlowSubscriberDoesNotPerturbCheckpoint stacks the push path onto
// contracts #4/#5: a world served with a subscriber that never drains
// (drop-and-resync engaged on every tick) must still checkpoint
// byte-identically to the same (script, spec, seed, ticks) run
// standalone. A push reads the published view and takes no session
// lock, so nothing a subscriber does can leak into the world state.
func TestSlowSubscriberDoesNotPerturbCheckpoint(t *testing.T) {
	const (
		units   = 200
		density = 0.02
		seed    = 11
		ticks   = 16
	)
	standalone := runStandalone(t, game.Script, units, density, seed, ticks)

	ts, reg := newTestServer(t)
	create(t, ts.URL, "watched", func(r *CreateRequest) {
		r.Units, r.Density, r.Seed = units, density, seed
		r.Workers = 2 // tuning deliberately differs from the standalone run
	})
	wd, ok := reg.Get("watched")
	if !ok {
		t.Fatal("world not registered")
	}
	q, _, err := wd.CompiledQuery(posSumSrc)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := wd.subscribe(subSpec{q: q})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.unsubscribe(sub) // never drained: the slowest possible client

	for done := 0; done < ticks; done += 4 {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/watched/step", StepRequest{Ticks: 4}, nil); code != http.StatusOK {
			t.Fatalf("step: %d", code)
		}
	}
	if v := wd.pushDrops.Value(); v == 0 {
		t.Error("undrained subscriber never dropped — the slow path was not exercised")
	}
	if served := fetchCheckpoint(t, ts.URL, "watched"); !bytes.Equal(standalone, served) {
		t.Error("slow subscriber perturbed checkpoint bytes (contracts #4/#5 violated)")
	}
}

// TestSubscribeBadRequest covers the subscription spec rejections.
func TestSubscribeBadRequest(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "bad", nil)
	esc := url.QueryEscape
	cases := []struct{ name, query string }{
		{"missing q", ""},
		{"unparseable q", "q=" + esc(`aggregate Broken( :=`)},
		{"bad args", "q=" + esc(posSumSrc) + "&args=one,two"},
		{"unit query without probe", "q=" + esc(zoneSrc) + "&args=5"},
		{"NaN position", "q=" + esc(zoneSrc) + "&args=5&x=NaN&y=0"},
		{"infinite position", "q=" + esc(zoneSrc) + "&args=5&x=0&y=-Inf"},
	}
	for _, c := range cases {
		resp, err := http.Get(ts.URL + "/v1/sessions/bad/subscribe?" + c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
}

// TestProbeParamsRejectedAlike: the query and subscribe endpoints take
// their probe through one parser, so a malformed probe is a 400 on both —
// with the same message where the combination, not the syntax, is wrong.
func TestProbeParamsRejectedAlike(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "probe", nil)
	esc := url.QueryEscape
	cases := []struct {
		name     string
		body     string // the /query request's probe fields, JSON
		params   string // the /subscribe request's probe parameters
		sameText bool
	}{
		{"x without y", `"x":1`, "&x=1", true},
		{"y without x", `"y":1`, "&y=1", true},
		{"unit with x", `"x":1,"y":2,"unit":3`, "&x=1&y=2&unit=3", true},
		{"unit with x only", `"x":1,"unit":3`, "&x=1&unit=3", true},
		{"non-numeric x", `"x":"one","y":2`, "&x=one&y=2", false},
		{"non-numeric unit", `"unit":"three"`, "&unit=three", false},
		{"fractional unit", `"unit":1.5`, "&unit=1.5", false},
	}
	for _, c := range cases {
		var qe, se errorResponse
		body := json.RawMessage(`{"src":` + strconv.Quote(zoneSrc) + `,"args":[5],` + c.body + `}`)
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/probe/query", body, &qe); code != http.StatusBadRequest {
			t.Errorf("%s: query status %d, want 400", c.name, code)
		}
		if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/probe/subscribe?q="+esc(zoneSrc)+"&args=5"+c.params, nil, &se); code != http.StatusBadRequest {
			t.Errorf("%s: subscribe status %d, want 400", c.name, code)
		}
		if c.sameText && qe.Error != se.Error {
			t.Errorf("%s: query says %q, subscribe says %q", c.name, qe.Error, se.Error)
		}
	}
}

// TestUnitProbeKeyBeyondFloatPrecision: a unit probe resolves its key
// exactly. Key 2^53+1 is the float64 2^53, so a float compare of the key
// column answered the scan query for 2^53+1 from the spawned unit 2^53;
// both evaluators must now reject it alike, and answer 2^53 itself.
func TestUnitProbeKeyBeyondFloatPrecision(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "big", nil)
	const big = int64(1) << 53
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/big/commands", CommandsRequest{
		Commands: []WireCommand{{Op: "spawn", Key: big, X: 40, Y: 40}},
	}, nil); code != http.StatusOK {
		t.Fatalf("spawn: status %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/big/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
		t.Fatalf("step: status %d", code)
	}
	src := `aggregate Foes(u) := count(*) as n, sum(e.health) as hp over e where e.player <> u.player;`
	var texts []string
	for _, scan := range []bool{false, true} {
		key, beyond := big, big+1
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/big/query", QueryRequest{Src: src, Unit: &key, Scan: scan}, nil); code != http.StatusOK {
			t.Errorf("scan=%v: unit 2^53: status %d, want 200", scan, code)
		}
		var er errorResponse
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/big/query", QueryRequest{Src: src, Unit: &beyond, Scan: scan}, &er); code != http.StatusBadRequest {
			t.Errorf("scan=%v: unit 2^53+1: status %d, want 400", scan, code)
		}
		texts = append(texts, er.Error)
	}
	if texts[0] != texts[1] {
		t.Errorf("unit 2^53+1: indexed says %q, scan says %q", texts[0], texts[1])
	}
}

// TestNaNSubscriptionKeepsTheClock: a subscription with a NaN argument —
// the subscribe endpoint parses "NaN" — is re-evaluated through the
// maintained path every tick under the session's reader lock. Its answer
// used to be keyed by float fields and never found again (then at a NaN
// position, which is now a 400), so the 33rd evaluation spun forever in
// eviction and the clock, and every later Step, stalled behind that lock.
// A clocked world must pass 40 ticks, and a Step after it must return.
func TestNaNSubscriptionKeepsTheClock(t *testing.T) {
	reg := NewRegistry()
	wd, err := reg.Create("nan", WorldSpec{
		Units: 64, Density: 0.02, Seed: 5,
		Formation: workload.BattleLines, Mode: engine.Indexed,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/sessions/nan/subscribe?q="+url.QueryEscape(zoneSrc)+"&x=0&y=0&args=NaN", nil)
	spec, err := parseSubSpec(wd, req)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := wd.subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer wd.unsubscribe(sub)
	if err := wd.StartClock(-1); err != nil {
		t.Fatal(err)
	}
	if !wd.WaitTick(39, 10*time.Second) {
		t.Fatalf("clock stalled at tick %d with a NaN subscription", wd.Session().Tick())
	}
	wd.StopClock()
	stepped := make(chan error, 1)
	go func() { stepped <- wd.Step(1) }()
	select {
	case err := <-stepped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Step did not return with a NaN subscription")
	}
	reg.Close()
}

// TestCompiledQueryCacheLRU is the regression test for the compile-once
// cache bound: unbounded distinct sources must not pin unbounded
// compiled programs, while a source in active use survives eviction
// (same pointer, so engine-side index sharing keeps working).
func TestCompiledQueryCacheLRU(t *testing.T) {
	reg := NewRegistry()
	defer reg.Close()
	wd, err := reg.Create("lru", WorldSpec{
		Units: 16, Density: 0.02, Seed: 1,
		Formation: workload.BattleLines, Mode: engine.Indexed,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := `aggregate Hot(u) := count(*) over e;`
	p0, _, err := wd.CompiledQuery(hot)
	if err != nil {
		t.Fatal(err)
	}
	coldSrc := func(i int) string {
		return fmt.Sprintf("aggregate Q%d(u) := count(*) over e where e.health > %d;", i, i%64)
	}
	var q0 *engine.Query
	for i := 0; i < maxCachedQuerySources+40; i++ {
		q, _, err := wd.CompiledQuery(coldSrc(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			q0 = q
		}
		// Keep the hot source recent; it must never be the LRU victim.
		if p, _, err := wd.CompiledQuery(hot); err != nil || p != p0 {
			t.Fatalf("hot source evicted after %d cold inserts (err %v)", i+1, err)
		}
	}
	if got := wd.cachedQueryCount(); got > maxCachedQuerySources {
		t.Errorf("cache holds %d sources, bound is %d", got, maxCachedQuerySources)
	}
	// The first cold source aged out; re-requesting it recompiles.
	if q, _, err := wd.CompiledQuery(coldSrc(0)); err != nil {
		t.Fatal(err)
	} else if q == q0 {
		t.Error("oldest cold source survived past the cache bound")
	}
}

// TestCheckpointTraversalRejected pins the data-dir boundary: checkpoint
// and restore file names that would escape the data directory are
// rejected with 400 and nothing is written outside it.
func TestCheckpointTraversalRejected(t *testing.T) {
	ts, dir := newTestServerWithDataDir(t)
	create(t, ts.URL, "trav", nil)
	for _, bad := range []string{"../evil", "..", "a/b.ckpt", "/abs.ckpt", ".hidden", "-flag"} {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/trav/checkpoint", CheckpointRequest{File: bad}, nil); code != http.StatusBadRequest {
			t.Errorf("checkpoint File %q: status %d, want 400", bad, code)
		}
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", CreateRequest{Name: "t2", Restore: bad}, nil); code != http.StatusBadRequest {
			t.Errorf("restore %q: status %d, want 400", bad, code)
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "evil")); !os.IsNotExist(err) {
		t.Error("traversal attempt left a file outside the data dir")
	}
}

// TestDataPathDefenseInDepth drives the joined-path re-check directly:
// even if the name regex were ever relaxed, dataPath must still refuse
// anything that resolves outside the data directory.
func TestDataPathDefenseInDepth(t *testing.T) {
	s := &Server{dataDir: "data"}
	for _, bad := range []string{"../x", "a/b", "/abs", "..", ".", ""} {
		if _, err := s.dataPath(bad); err == nil {
			t.Errorf("dataPath(%q) accepted an escaping name", bad)
		}
	}
	p, err := s.dataPath("ok.ckpt")
	if err != nil || p != filepath.Join("data", "ok.ckpt") {
		t.Errorf("dataPath(ok.ckpt) = %q, %v", p, err)
	}
}

// TestRequestBodyLimit pins the body bound: an oversized JSON body is
// rejected with 413 (distinguishable from malformed JSON's 400), and the
// server keeps serving normal requests afterwards.
func TestRequestBodyLimit(t *testing.T) {
	ts, _ := newTestServer(t)
	big := `{"name":"big","script":"` + strings.Repeat("a", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(er.Error, "exceeds") {
		t.Errorf("413 body %q does not name the limit", er.Error)
	}
	// The connection-scoped limiter must not have wedged the server.
	create(t, ts.URL, "after", nil)
}
