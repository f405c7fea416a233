package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/server"
)

// writerTraffic drives deterministic command+step traffic against a
// writer session over HTTP, one batch per tick. The spawn guarantees
// every tick changes `sum(e.health)` — a set on an existing unit can be
// a no-op once the battle reaches its fixed point and the target is
// dead, which would starve change-driven push subscriptions.
func writerTraffic(t *testing.T, base, name string, fromTick, ticks int) {
	t.Helper()
	for i := 0; i < ticks; i++ {
		tick := fromTick + i
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+name+"/commands", server.CommandsRequest{
			Origin: "actor",
			Commands: []server.WireCommand{
				{Op: "spawn", Key: int64(100000 + tick), Player: tick % 2, X: float64(5 * tick), Y: 3},
				{Op: "set", Key: int64((tick * 5) % 100), Col: "health", Val: float64(45 + tick)},
			},
		}, nil); code != http.StatusOK {
			t.Fatalf("commands at tick %d: %d", tick, code)
		}
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+name+"/step", server.StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step at tick %d: %d", tick, code)
		}
	}
}

// racingActor posts command batches to a writer session from its own
// goroutine, back to back, until the returned stop is called, so
// commands keep arriving while the writer's steps run: one admitted
// mid-tick is stamped for, and applied at, the commit of the step under
// way. stop waits for the last post and reports how many batches were
// admitted.
func racingActor(t *testing.T, base, name string) (stop func() int) {
	t.Helper()
	done := make(chan struct{})
	admitted := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; ; i++ {
			select {
			case <-done:
				admitted <- n
				return
			default:
			}
			code, err := try(http.MethodPost, base+"/v1/sessions/"+name+"/commands", server.CommandsRequest{
				Origin: "racer",
				Commands: []server.WireCommand{
					{Op: "set", Key: int64((i * 7) % 100), Col: "morale", Val: float64(i % 13)},
					{Op: "spawn", Key: int64(200000 + i), Player: i % 2, X: float64((3 * i) % 60), Y: 57},
				},
			}, nil)
			if err == nil && code == http.StatusOK {
				n++
			}
		}
	}()
	return func() int {
		close(done)
		return <-admitted
	}
}

// waitCaughtUp polls until the follower's replica reaches the target
// tick.
func waitCaughtUp(t *testing.T, f *Follower, target int64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.World().Session().Tick() >= target {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica stuck at tick %d, want %d (lastErr %q)", f.World().Session().Tick(), target, f.Err())
}

// TestReplicaMatchesWriter is the replica leg of contract #6: a
// follower bootstrapped from the writer's checkpoint and advanced over
// its streamed journal serves QueryScan* answers — over its own HTTP
// surface — bit-identical to the writer's at the same tick, and its
// checkpoint bytes equal the writer's. The replica runs Workers=4
// against the writer's default (contract #1 stacks; the shard count does
// not reach the bytes), and a pending command in the bootstrap stream exercises the
// journal-overlap dedupe. An actor racing the writer's first eight steps
// lands commands mid-tick, which the writer applies at the commit of the
// step they arrived during and the replicas at the same stamp.
func TestReplicaMatchesWriter(t *testing.T) {
	writer := newNode(t)
	if code := do(t, http.MethodPost, writer.ts.URL+"/v1/sessions", server.CreateRequest{
		Name: "w", Units: 100, Seed: 11,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create writer: %d", code)
	}
	// A pending command before bootstrap: the checkpoint carries it, and
	// the first journal fetch re-serves it — the replica must not
	// double-apply.
	if code := do(t, http.MethodPost, writer.ts.URL+"/v1/sessions/w/commands", server.CommandsRequest{
		Origin:   "boot",
		Commands: []server.WireCommand{{Op: "set", Key: 2, Col: "health", Val: 70}},
	}, nil); code != http.StatusOK {
		t.Fatalf("pending command: %d", code)
	}

	replicaReg := server.NewRegistry()
	replicaSrv := httptest.NewServer(server.New(replicaReg, t.TempDir()))
	defer func() {
		replicaSrv.Close()
		replicaReg.Close()
	}()
	f, err := StartFollower(FollowerConfig{
		Writer: writer.ts.URL, Session: "w", As: "w",
		Registry: replicaReg,
		Tune:     engine.Options{Workers: 4},
		Wait:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	stopRacer := racingActor(t, writer.ts.URL, "w")
	writerTraffic(t, writer.ts.URL, "w", 0, 8)
	if n := stopRacer(); n == 0 {
		t.Fatal("the racing actor admitted no command")
	}
	writerTraffic(t, writer.ts.URL, "w", 8, 1) // applies the racer's last batches
	waitCaughtUp(t, f, 9)

	// The writer is paused (synchronous steps only), the replica caught
	// up: both serve the same tick, so every observation answer and the
	// checkpoint bytes must match exactly.
	queries := []server.QueryRequest{
		{Src: `aggregate Pop(u) := count(*) as n, sum(e.health) as hp, avg(e.posx) as mx over e;`, Scan: true},
		{Src: `aggregate Pop(u) := count(*) as n, sum(e.health) as hp, avg(e.posx) as mx over e;`},
		{Src: `aggregate Near(u, r) := count(*) over e where e.posx >= u.posx - r and e.posx <= u.posx + r;`,
			X: ptr(20.0), Y: ptr(20.0), Args: []float64{15}, Scan: true},
		{Src: `aggregate Mine(u) := count(*), max(e.health) as top over e where e.player = u.player;`,
			Unit: ptrI(3), Scan: true},
	}
	for i, q := range queries {
		var wr, rr server.QueryResponse
		if code := do(t, http.MethodPost, writer.ts.URL+"/v1/sessions/w/query", q, &wr); code != http.StatusOK {
			t.Fatalf("query %d on writer: %d", i, code)
		}
		if code := do(t, http.MethodPost, replicaSrv.URL+"/v1/sessions/w/query", q, &rr); code != http.StatusOK {
			t.Fatalf("query %d on replica: %d", i, code)
		}
		if wr.Tick != rr.Tick {
			t.Fatalf("query %d: writer at tick %d, replica at %d", i, wr.Tick, rr.Tick)
		}
		if fmt.Sprint(wr.Values) != fmt.Sprint(rr.Values) {
			t.Errorf("query %d: writer %v != replica %v (contract #6 replica leg violated)", i, wr.Values, rr.Values)
		}
	}
	wck := fetchCheckpoint(t, writer.ts.URL, "w")
	rck := fetchCheckpoint(t, replicaSrv.URL, "w")
	if !bytes.Equal(wck, rck) {
		t.Error("replica checkpoint differs from writer at the same tick")
	}

	// Push subscriptions served from the replica: a subscriber attached
	// to the replica's own /subscribe sees answers advance as the
	// replication loop replays writer ticks.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	req, err := http.NewRequestWithContext(subCtx, http.MethodGet,
		replicaSrv.URL+"/v1/sessions/w/subscribe?q="+url.QueryEscape(`aggregate Pop(u) := sum(e.health) over e;`), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan server.SubscribeEvent, 16)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var ev server.SubscribeEvent
				if json.Unmarshal([]byte(line), &ev) == nil {
					events <- ev
				}
			}
		}
	}()
	writerTraffic(t, writer.ts.URL, "w", 9, 3)
	waitCaughtUp(t, f, 12)
	sawAdvance := false
	timeout := time.After(5 * time.Second)
	for !sawAdvance {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatal("replica subscription closed early")
			}
			if ev.Tick >= 10 {
				sawAdvance = true
			}
		case <-timeout:
			t.Fatal("replica subscription never pushed a post-bootstrap tick")
		}
	}

	if f.Recoveries() != 0 {
		t.Errorf("recoveries = %d on an uncompacted run", f.Recoveries())
	}
	// Lag must read caught-up on the replica's readyz.
	var ready server.ReadyResponse
	if code := do(t, http.MethodGet, replicaSrv.URL+"/readyz", nil, &ready); code != http.StatusOK {
		t.Fatalf("replica readyz: %d", code)
	}
	if ready.Replicas != 1 || ready.MaxLagTicks != 0 {
		t.Errorf("replica readyz = %+v, want 1 replica at lag 0", ready)
	}
}

func ptr(v float64) *float64 { return &v }
func ptrI(v int64) *int64    { return &v }

// TestReplicaRecoversAfterCompaction pins the 410 path: the replica
// falls behind, the writer compacts past its cursor, the next poll
// comes back 410 Gone, and the follower recovers by re-bootstrapping
// from a fresh checkpoint — after which it matches the writer's bytes
// again. Driven by hand (newFollower + sync) so the fall-behind window
// is deterministic.
func TestReplicaRecoversAfterCompaction(t *testing.T) {
	writer := newNode(t)
	if code := do(t, http.MethodPost, writer.ts.URL+"/v1/sessions", server.CreateRequest{
		Name: "w", Units: 80, Seed: 3,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create writer: %d", code)
	}
	writerTraffic(t, writer.ts.URL, "w", 0, 3)

	replicaReg := server.NewRegistry()
	defer replicaReg.Close()
	f, err := newFollower(FollowerConfig{
		Writer: writer.ts.URL, Session: "w",
		Registry: replicaReg,
		Wait:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.cancel()
	if got := f.World().Session().Tick(); got != 3 {
		t.Fatalf("bootstrap at tick %d, want 3", got)
	}

	// The replica sleeps while the writer advances and compacts: its
	// cursor (3) falls below the new journal base.
	writerTraffic(t, writer.ts.URL, "w", 3, 5)
	var cr server.CompactResponse
	if code := do(t, http.MethodPost, writer.ts.URL+"/v1/sessions/w/compact", nil, &cr); code != http.StatusOK {
		t.Fatalf("compact: %d", code)
	}
	if cr.Base <= 3 {
		t.Fatalf("compaction base %d did not pass the replica cursor", cr.Base)
	}

	// One sync: the poll is 410 Gone, recovery fetches a checkpoint and
	// republishes the replica at the writer's tick.
	if err := f.sync(); err != nil {
		t.Fatalf("sync across compaction: %v", err)
	}
	if f.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", f.Recoveries())
	}
	if got := f.World().Session().Tick(); got != 8 {
		t.Fatalf("recovered replica at tick %d, want 8", got)
	}

	// And the recovered replica still tracks the writer exactly.
	writerTraffic(t, writer.ts.URL, "w", 8, 4)
	if err := f.sync(); err != nil {
		t.Fatal(err)
	}
	var wck, rck bytes.Buffer
	wd, _ := writer.reg.Get("w")
	if err := wd.Checkpoint(&wck); err != nil {
		t.Fatal(err)
	}
	if err := f.World().Checkpoint(&rck); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wck.Bytes(), rck.Bytes()) {
		t.Error("post-recovery replica checkpoint differs from writer")
	}
	if f.Recoveries() != 1 {
		t.Errorf("recoveries = %d after a plain catch-up, want still 1", f.Recoveries())
	}
}

// TestFollowerBootstrapFailsFast pins the synchronous-bootstrap
// contract: a bad writer URL or unknown session surfaces at
// StartFollower, not later in a background loop.
func TestFollowerBootstrapFailsFast(t *testing.T) {
	writer := newNode(t)
	reg := server.NewRegistry()
	defer reg.Close()

	if _, err := StartFollower(FollowerConfig{
		Writer: writer.ts.URL, Session: "nope", Registry: reg,
	}); err == nil {
		t.Error("following an unknown session did not fail")
	}
	if _, err := StartFollower(FollowerConfig{
		Writer: "http://127.0.0.1:1", Session: "w", Registry: reg,
	}); err == nil {
		t.Error("following an unreachable writer did not fail")
	}
	if _, err := StartFollower(FollowerConfig{Session: "w", Registry: reg}); err == nil {
		t.Error("empty writer URL did not fail")
	}
}

// silentListener accepts connections and, while silent is set, holds them
// open without writing a byte: a writer that accepts and never answers.
type silentListener struct {
	net.Listener
	silent atomic.Bool
	mu     sync.Mutex
	held   []net.Conn
}

func (l *silentListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil || !l.silent.Load() {
			return c, err
		}
		l.mu.Lock()
		l.held = append(l.held, c)
		l.mu.Unlock()
	}
}

func (l *silentListener) Close() error {
	l.mu.Lock()
	for _, c := range l.held {
		c.Close()
	}
	l.mu.Unlock()
	return l.Listener.Close()
}

// A writer that accepts a replica's requests and never answers must not
// stall the replica forever: every request carries a deadline derived
// from Wait, so the follower reports an error within two attempts of it,
// and catches up once the writer answers again. The writer's daemon sits
// behind a listener that turns silent; with keep-alives off, every
// request dials anew, so silence reaches every request made after it.
func TestFollowerSurvivesSilentWriter(t *testing.T) {
	writer := newNode(t)
	if code := do(t, http.MethodPost, writer.ts.URL+"/v1/sessions", server.CreateRequest{
		Name: "w", Units: 100, Seed: 3,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create writer: %d", code)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &silentListener{Listener: ln}
	srv := &http.Server{Handler: server.New(writer.reg, t.TempDir())}
	srv.SetKeepAlivesEnabled(false)
	go srv.Serve(front)
	defer srv.Close()

	replicaReg := server.NewRegistry()
	defer replicaReg.Close()
	const wait = 100 * time.Millisecond
	f, err := StartFollower(FollowerConfig{
		Writer: "http://" + ln.Addr().String(), Session: "w",
		Registry: replicaReg, Wait: wait,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	writerTraffic(t, writer.ts.URL, "w", 0, 2)
	waitCaughtUp(t, f, 2)

	front.silent.Store(true)
	silentAt := time.Now()
	// The poll in flight answers within Wait; the next two attempts each
	// wait out the client's timeout before the error is reported.
	bound := wait + 2*f.cfg.Client.Timeout + time.Second
	for f.Err() == "" {
		if time.Since(silentAt) > bound {
			t.Fatalf("no replication error %v after the writer went silent (bound %v)", time.Since(silentAt), bound)
		}
		time.Sleep(10 * time.Millisecond)
	}
	writerTraffic(t, writer.ts.URL, "w", 2, 3)

	front.silent.Store(false)
	waitCaughtUp(t, f, 5)
	for deadline := time.Now().Add(5 * time.Second); f.Err() != ""; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the replica caught up but still reports %q", f.Err())
		}
	}
	var replica bytes.Buffer
	if err := f.World().Session().Checkpoint(&replica); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetchCheckpoint(t, writer.ts.URL, "w"), replica.Bytes()) {
		t.Error("the recovered replica's checkpoint differs from its writer's")
	}
}

// Recoveries counts checkpoint re-bootstraps forced by writer
// compaction (the 410 path).
func (f *Follower) Recoveries() int64 { return f.recoveries.Load() }

// Err returns the last replication error ("" when healthy). Transient:
// the loop keeps retrying until Stop.
func (f *Follower) Err() string { return f.lastErr.Load().(string) }
