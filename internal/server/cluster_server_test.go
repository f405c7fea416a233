// Tests for the server's cluster-facing surface: the /readyz report,
// journal long-polls, push-restore (PUT …/checkpoint), replica worlds,
// and the SSE-through-a-reverse-proxy regression that gateway proxying
// depends on.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/table"
)

// putCheckpoint streams ck as a PUT …/checkpoint body and decodes the
// response, returning the status code.
func putCheckpoint(t *testing.T, urlStr string, ck []byte, out any) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, urlStr, bytes.NewReader(ck))
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
			t.Fatalf("decode PUT %s response %q: %v", urlStr, data, err)
		}
	}
	return resp.StatusCode
}

// openReplica opens a session from checkpoint bytes and registers it as
// a follower world.
func openReplica(t *testing.T, reg *Registry, name string, ck []byte) *World {
	t.Helper()
	sess, err := engine.Open(bytes.NewReader(ck), game.NewMechanics(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := reg.RegisterReplica(name, sess)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestReadyzReportsLoadAndLag pins the gateway's placement/health signal:
// /readyz counts worlds and replicas and surfaces the worst replica lag,
// and the sgld_replica_lag_ticks gauge appears on /metrics.
func TestReadyzReportsLoadAndLag(t *testing.T) {
	ts, reg := newTestServer(t)
	create(t, ts.URL, "primary", nil)

	var ready ReadyResponse
	if code := do(t, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	if ready.Worlds != 1 || ready.Replicas != 0 || ready.MaxLagTicks != 0 {
		t.Errorf("readyz before replica = %+v", ready)
	}

	rep := openReplica(t, reg, "primary-r", fetchCheckpoint(t, ts.URL, "primary"))
	rep.SetReplicaLag(3)

	if code := do(t, http.MethodGet, ts.URL+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("readyz: %d", code)
	}
	if ready.Worlds != 2 || ready.Replicas != 1 || ready.MaxLagTicks != 3 {
		t.Errorf("readyz with lagging replica = %+v", ready)
	}
	found := false
	for _, s := range ready.Sessions {
		if s.Name == "primary-r" {
			found = true
			if !s.Replica || s.LagTicks != 3 {
				t.Errorf("replica session row = %+v", s)
			}
		}
	}
	if !found {
		t.Error("readyz sessions missing the replica")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `sgld_replica_lag_ticks{session="primary-r"} 3`) {
		t.Error("metrics missing sgld_replica_lag_ticks for the replica")
	}
}

// TestJournalLongPoll pins the replication transport: ?wait= parks the
// request until the world ticks past ?since (woken by the tick, not a
// poll), times out gracefully with the current suffix, and rejects
// unanchored or malformed waits.
func TestJournalLongPoll(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "lp", nil)

	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/lp/journal?wait=1s", nil, nil); code != http.StatusBadRequest {
		t.Errorf("wait without since: %d, want 400", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/lp/journal?since=0&wait=bogus", nil, nil); code != http.StatusBadRequest {
		t.Errorf("malformed wait: %d, want 400", code)
	}

	// The blocking poll: parked at since=0 on a paused world, it must
	// return promptly once the world steps — well before its 10s budget.
	type result struct {
		resp JournalResponse
		code int
		err  error
		took time.Duration
	}
	ch := make(chan result, 1)
	start := time.Now()
	go func() {
		var r result
		r.code, r.err = try(http.MethodGet, ts.URL+"/v1/sessions/lp/journal?since=0&wait=10s", nil, &r.resp)
		r.took = time.Since(start)
		ch <- r
	}()
	time.Sleep(100 * time.Millisecond) // let the poll park
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/lp/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	select {
	case r := <-ch:
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("long-poll: code %d, err %v", r.code, r.err)
		}
		if r.resp.Tick != 1 {
			t.Errorf("long-poll woke at tick %d, want 1", r.resp.Tick)
		}
		if r.took > 5*time.Second {
			t.Errorf("long-poll took %v — woken by timeout, not by the tick", r.took)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("long-poll never returned after the step")
	}

	// The timeout path: a wait past the current tick expires and returns
	// the (empty) suffix with 200, not an error.
	var jr JournalResponse
	start = time.Now()
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/lp/journal?since=5&wait=200ms", nil, &jr); code != http.StatusOK {
		t.Fatalf("timed-out poll: %d", code)
	}
	if took := time.Since(start); took < 150*time.Millisecond {
		t.Errorf("timed-out poll returned in %v — it never waited", took)
	}
	if jr.Tick != 1 || len(jr.Entries) != 0 {
		t.Errorf("timed-out poll = tick %d, %d entries; want tick 1, none", jr.Tick, len(jr.Entries))
	}
}

// TestCheckpointPutRestores pins the push half of migration: a world
// checkpointed from one daemon comes up on another via PUT …/checkpoint
// with restore-time tuning, and checkpoints byte-identically (tuning is
// deliberately not serialized).
func TestCheckpointPutRestores(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "src", nil)
	do(t, http.MethodPost, ts.URL+"/v1/sessions/src/commands", CommandsRequest{
		Origin:   "t",
		Commands: []WireCommand{{Op: "set", Key: 3, Col: "health", Val: 55}},
	}, nil)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/src/step", StepRequest{Ticks: 5}, nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	ck := fetchCheckpoint(t, ts.URL, "src")

	var cr CreateResponse
	// ?incremental is accepted and ignored, whatever its value.
	if code := putCheckpoint(t, ts.URL+"/v1/sessions/dst/checkpoint?workers=2&incremental=maybe", ck, &cr); code != http.StatusCreated {
		t.Fatalf("PUT checkpoint: %d", code)
	}
	if cr.Tick != 5 || cr.Workers != 2 {
		t.Errorf("restored status = %+v, want tick 5 workers 2", cr.Status)
	}
	if got := fetchCheckpoint(t, ts.URL, "dst"); !bytes.Equal(ck, got) {
		t.Error("pushed-restore checkpoint bytes differ from the source")
	}

	// Collisions are 409 (the migration caller must know the name is
	// taken), malformed tuning is 400, and a truncated stream is 400.
	if code := putCheckpoint(t, ts.URL+"/v1/sessions/dst/checkpoint", ck, nil); code != http.StatusConflict {
		t.Errorf("duplicate PUT: %d, want 409", code)
	}
	if code := putCheckpoint(t, ts.URL+"/v1/sessions/d2/checkpoint?workers=lots", ck, nil); code != http.StatusBadRequest {
		t.Errorf("bad workers param: %d, want 400", code)
	}
	if code := putCheckpoint(t, ts.URL+"/v1/sessions/d3/checkpoint", ck[:len(ck)/2], nil); code != http.StatusBadRequest {
		t.Errorf("truncated stream: %d, want 400", code)
	}
}

// rewriteCell overwrites one row cell of a checkpoint stream and
// recomputes the trailer, so the stream stays checksum-valid. The rows
// section follows the schema section: a row count, then the rows
// row-major as float64 bits.
func rewriteCell(t *testing.T, ck []byte, row, col int, bits uint64) {
	t.Helper()
	var schema bytes.Buffer
	table.WriteSchema(table.NewWriter(&schema), game.Schema())
	at := bytes.Index(ck, schema.Bytes())
	if at < 0 {
		t.Fatal("schema section not found in the checkpoint")
	}
	off := at + schema.Len() + 4 + (row*game.Schema().NumAttrs()+col)*8
	binary.LittleEndian.PutUint64(ck[off:off+8], bits)
	sum := table.NewWriter(io.Discard)
	sum.Bytes(ck[:len(ck)-8])
	binary.LittleEndian.PutUint64(ck[len(ck)-8:], sum.Sum())
}

// TestCheckpointPutRejectsBadRows: a checksum-valid checkpoint whose rows
// break an ingress rule — two rows sharing a unit key, or a position that
// is NaN or far outside the world — is refused with 400 like any invalid
// restore, and no world comes up under the name.
func TestCheckpointPutRejectsBadRows(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "src", nil)
	kc, px := game.Schema().KeyCol(), game.Schema().MustCol("posx")
	for _, tc := range []struct {
		name     string
		col      int
		bits     func(ck []byte) uint64
		wantText string
	}{
		{"colliding-keys", kc, func([]byte) uint64 { return math.Float64bits(0) }, "share key"},
		{"nan-position", px, func([]byte) uint64 { return math.Float64bits(math.NaN()) }, "outside the world"},
		{"far-position", px, func([]byte) uint64 { return math.Float64bits(1e12) }, "outside the world"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := fetchCheckpoint(t, ts.URL, "src")
			rewriteCell(t, ck, 1, tc.col, tc.bits(ck))
			var resp errorResponse
			if code := putCheckpoint(t, ts.URL+"/v1/sessions/dst/checkpoint", ck, &resp); code != http.StatusBadRequest ||
				!strings.Contains(resp.Error, tc.wantText) {
				t.Fatalf("PUT checkpoint: %d %q, want 400 containing %q", code, resp.Error, tc.wantText)
			}
			if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/dst", nil, nil); code != http.StatusNotFound {
				t.Errorf("a rejected PUT left a world behind: GET status %d", code)
			}
		})
	}
}

// TestReplicaWorldRefusesMutation pins the follower discipline over
// HTTP: every client-side mutation on a replica is 409 with the replica
// spelled out, while reads (status, query, journal, checkpoint) serve
// normally.
func TestReplicaWorldRefusesMutation(t *testing.T) {
	ts, reg := newTestServer(t)
	create(t, ts.URL, "w", nil)
	openReplica(t, reg, "r", fetchCheckpoint(t, ts.URL, "w"))

	var st Status
	if code := do(t, http.MethodGet, ts.URL+"/v1/sessions/r", nil, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if !st.Replica {
		t.Errorf("status = %+v, want Replica", st)
	}

	var er errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/r/step", StepRequest{Ticks: 1}, &er); code != http.StatusConflict {
		t.Errorf("step on replica: %d, want 409", code)
	} else if !strings.Contains(er.Error, "replica") {
		t.Errorf("step error %q does not say replica", er.Error)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/r/run", RunRequest{TickRate: 10}, nil); code != http.StatusConflict {
		t.Errorf("run on replica: %d, want 409", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/r/commands", CommandsRequest{
		Origin: "t", Commands: []WireCommand{{Op: "despawn", Key: 1}},
	}, nil); code != http.StatusConflict {
		t.Errorf("commands on replica: %d, want 409", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/r/compact", nil, nil); code != http.StatusConflict {
		t.Errorf("compact on replica: %d, want 409", code)
	}

	var qr QueryResponse
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/r/query", QueryRequest{Src: posSumSrc}, &qr); code != http.StatusOK {
		t.Errorf("query on replica: %d, want 200", code)
	}
	if code := do(t, http.MethodDelete, ts.URL+"/v1/sessions/r", nil, nil); code != http.StatusOK {
		t.Errorf("delete replica: %d, want 200", code)
	}
}

// TestReplicaAdvanceMatchesWriter is the in-process half of contract #6's
// replica leg: a follower bootstrapped from the writer's checkpoint and
// advanced through ReplicaAdvance over the writer's journal reaches
// byte-identical checkpoints at the same tick — including command traffic
// and a pending batch restored from the bootstrap stream (the dedupe
// path).
func TestReplicaAdvanceMatchesWriter(t *testing.T) {
	ts, reg := newTestServer(t)
	create(t, ts.URL, "writer", nil)
	wd, _ := reg.Get("writer")

	// A pending command in the bootstrap checkpoint: the replica restores
	// it, then sees the same entry again in the journal fetch and must
	// not double-apply.
	do(t, http.MethodPost, ts.URL+"/v1/sessions/writer/commands", CommandsRequest{
		Origin:   "a",
		Commands: []WireCommand{{Op: "set", Key: 2, Col: "health", Val: 40}},
	}, nil)
	boot := fetchCheckpoint(t, ts.URL, "writer")
	rep := openReplica(t, reg, "writer-r", boot)

	for i := 0; i < 4; i++ {
		do(t, http.MethodPost, ts.URL+"/v1/sessions/writer/commands", CommandsRequest{
			Origin:   "b",
			Commands: []WireCommand{{Op: "set", Key: int64(10 + i), Col: "health", Val: float64(60 + i)}},
		}, nil)
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/writer/step", StepRequest{Ticks: 2}, nil); code != http.StatusOK {
			t.Fatalf("step: %d", code)
		}
	}

	target := wd.Session().Tick()
	entries := wd.Session().Journal()
	if err := rep.ReplicaAdvance(target, entries); err != nil {
		t.Fatal(err)
	}
	if got := rep.Session().Tick(); got != target {
		t.Fatalf("replica at tick %d, writer at %d", got, target)
	}

	var wck, rck bytes.Buffer
	if err := wd.Checkpoint(&wck); err != nil {
		t.Fatal(err)
	}
	if err := rep.Checkpoint(&rck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wck.Bytes(), rck.Bytes()) {
		t.Error("replica checkpoint differs from writer at the same tick")
	}

	// Entries stamped at the target tick (still open on the writer) are
	// deferred, not applied: advancing to the same target again with the
	// same entries is a no-op.
	if err := rep.ReplicaAdvance(target, entries); err != nil {
		t.Fatal(err)
	}
	if got := rep.Session().Tick(); got != target {
		t.Errorf("idempotent re-advance moved the replica to %d", got)
	}

	// And the guard: a primary world refuses ReplicaAdvance.
	if err := wd.ReplicaAdvance(target+1, nil); err == nil {
		t.Error("ReplicaAdvance on a primary world did not refuse")
	}
}

// TestSubscribeThroughReverseProxy is the satellite regression for SSE
// proxyability: through an httputil.ReverseProxy hop (what sglgw does),
// the subscribe stream must still deliver each event promptly — the
// handler's per-event flush plus the text/event-stream content type are
// what switch Go's proxy into unbuffered mode — and the
// X-Accel-Buffering: no header must survive the hop for non-Go proxies.
func TestSubscribeThroughReverseProxy(t *testing.T) {
	ts, _ := newTestServer(t)
	create(t, ts.URL, "prox", nil)

	target, err := url.Parse(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(httputil.NewSingleHostReverseProxy(target))
	defer front.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamURL := front.URL + "/v1/sessions/prox/subscribe?q=" + url.QueryEscape(posSumSrc)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe via proxy: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Accel-Buffering"); got != "no" {
		t.Errorf("X-Accel-Buffering = %q through the proxy, want \"no\"", got)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Errorf("Content-Type = %q through the proxy", ct)
	}

	events := make(chan SubscribeEvent, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev SubscribeEvent
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
				return
			}
			events <- ev
		}
	}()

	waitEvent := func(what string) SubscribeEvent {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("%s: stream closed", what)
			}
			return ev
		case <-time.After(3 * time.Second):
			t.Fatalf("%s: no event within 3s — the proxy hop is buffering", what)
		}
		panic("unreachable")
	}
	if ev := waitEvent("initial event"); ev.Tick != 0 {
		t.Errorf("initial event at tick %d, want 0", ev.Tick)
	}
	// Each step must push through the proxy promptly, one at a time: if
	// the hop buffered, the event would only arrive when the buffer fills
	// or the stream ends, and the 3s deadline would trip.
	for tk := int64(1); tk <= 3; tk++ {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/prox/step", StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step: %d", code)
		}
		if ev := waitEvent(fmt.Sprintf("event for tick %d", tk)); ev.Tick != tk {
			t.Errorf("event tick = %d, want %d", ev.Tick, tk)
		}
	}
}
