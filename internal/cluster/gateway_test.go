package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/server"
)

// TestGatewayRoutesAndAdopts pins the route-table mechanics: creates
// place and route, unknown names 404, deletes retire routes, the fleet
// list merges, and a world created behind the gateway's back is adopted
// on first touch (a restarted gateway relearns its table lazily).
func TestGatewayRoutesAndAdopts(t *testing.T) {
	g, gw, nodes := newCluster(t, 2)

	if code := do(t, http.MethodGet, gw.URL+"/v1/sessions/ghost", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown session via gateway: %d, want 404", code)
	}

	var st server.Status
	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions", server.CreateRequest{Name: "alpha", Units: 64}, &st); code != http.StatusCreated {
		t.Fatalf("create via gateway: %d", code)
	}
	owner, ok := g.RouteOf("alpha")
	if !ok {
		t.Fatal("no route recorded for alpha")
	}
	// The route must point at the node that actually owns the world.
	idx := map[string]int{"node0": 0, "node1": 1}[owner]
	if _, found := nodes[idx].reg.Get("alpha"); !found {
		t.Fatalf("route says %s but that node does not have the world", owner)
	}

	// Proxied reads and writes reach it.
	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions/alpha/step", server.StepRequest{Ticks: 2}, &st); code != http.StatusOK {
		t.Fatalf("step via gateway: %d", code)
	}
	if code := do(t, http.MethodGet, gw.URL+"/v1/sessions/alpha", nil, &st); code != http.StatusOK || st.Tick != 2 {
		t.Fatalf("status via gateway: code %d, tick %d", code, st.Tick)
	}

	// A duplicate create forwards to the owner and relays its 409.
	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions", server.CreateRequest{Name: "alpha", Units: 64}, nil); code != http.StatusConflict {
		t.Errorf("duplicate create via gateway: %d, want 409", code)
	}

	// Out-of-band world (created directly on a node): the gateway adopts
	// it on first touch.
	direct := nodes[1]
	if _, err := direct.reg.Create("oob", server.WorldSpec{Units: 64}); err != nil {
		t.Fatal(err)
	}
	if code := do(t, http.MethodGet, gw.URL+"/v1/sessions/oob", nil, &st); code != http.StatusOK {
		t.Fatalf("adopt-on-miss: %d", code)
	}
	if owner, ok := g.RouteOf("oob"); !ok || owner != "node1" {
		t.Errorf("adopted route = %q, %v; want node1", owner, ok)
	}

	// The merged list sees both worlds, sorted.
	var list []server.Status
	if code := do(t, http.MethodGet, gw.URL+"/v1/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list via gateway: %d", code)
	}
	if len(list) != 2 || list[0].Name != "alpha" || list[1].Name != "oob" {
		t.Errorf("merged list = %+v", list)
	}

	// Deletes retire the route.
	if code := do(t, http.MethodDelete, gw.URL+"/v1/sessions/alpha", nil, nil); code != http.StatusOK {
		t.Fatalf("delete via gateway: %d", code)
	}
	if _, ok := g.RouteOf("alpha"); ok {
		t.Error("route survived the delete")
	}
}

// TestPlacementSpreadsAndSkipsDead pins the placement function:
// rendezvous order is deterministic, a fleet of two shares a population
// of same-prefix names non-degenerately, and a dead node receives
// nothing.
func TestPlacementSpreadsAndSkipsDead(t *testing.T) {
	g, _, _ := newCluster(t, 2)

	counts := map[string]int{}
	for i := 0; i < 32; i++ {
		names := g.place("world-" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if len(names) != 2 {
			t.Fatalf("place returned %d nodes, want 2", len(names))
		}
		counts[names[0].node.Name]++
		// Determinism: the same session always gets the same order.
		again := g.place("world-" + string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if again[0] != names[0] || again[1] != names[1] {
			t.Fatal("placement order is not deterministic")
		}
	}
	if counts["node0"] == 0 || counts["node1"] == 0 {
		t.Errorf("degenerate spread: %v", counts)
	}

	// Kill node1: everything places on node0.
	g.byName["node1"].alive.Store(false)
	for i := 0; i < 8; i++ {
		names := g.place("x" + string(rune('0'+i)))
		if len(names) != 1 || names[0].node.Name != "node0" {
			t.Fatalf("placement with node1 dead = %v", names)
		}
	}
	g.byName["node1"].alive.Store(true)
}

// TestMigrationUnderTraffic is the liveness half of the migration
// guarantee: a world with its clock running is migrated to the other
// node while an actor keeps injecting commands and a subscriber holds
// an SSE stream through the gateway — and afterwards every acknowledged
// command is in the journal, the route points at the target, the source
// world is gone, and the world is still ticking.
func TestMigrationUnderTraffic(t *testing.T) {
	g, gw, nodes := newCluster(t, 2)

	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions", server.CreateRequest{
		Name: "mig", Units: 128, Seed: 7, TickRate: 100,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	srcName, _ := g.RouteOf("mig")
	srcIdx := map[string]int{"node0": 0, "node1": 1}[srcName]
	dstName := map[string]string{"node0": "node1", "node1": "node0"}[srcName]

	// Actor: inject commands through the gateway as fast as it can,
	// counting acknowledgments. Any non-200 is a lost-command bug — the
	// gateway must hold (not fail) requests while the route migrates.
	var acked atomic.Int64
	stop := make(chan struct{})
	actorDone := make(chan struct{})
	go func() {
		defer close(actorDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			code, err := try(http.MethodPost, gw.URL+"/v1/sessions/mig/commands", server.CommandsRequest{
				Origin:   "actor",
				Commands: []server.WireCommand{{Op: "set", Key: int64(i % 128), Col: "health", Val: float64(30 + i%50)}},
			}, nil)
			if err != nil || code != http.StatusOK {
				t.Errorf("actor command during migration: code %d, err %v", code, err)
				return
			}
			acked.Add(1)
		}
	}()

	// Subscriber: its stream to the source dies when the source world is
	// deleted; reconnecting through the gateway must land on the target
	// and keep delivering events.
	subEvents := func(ctx context.Context) (int, error) {
		// url.QueryEscape matters: a raw ';' in a query string is rejected
		// by net/http and the q pair would be dropped server-side.
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			gw.URL+"/v1/sessions/mig/subscribe?q="+url.QueryEscape(`aggregate Pop(u) := count(*) over e;`), nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("subscribe via gateway: %d", resp.StatusCode)
		}
		n := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				n++
			}
		}
		return n, nil
	}
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	preEvents := make(chan int, 1)
	go func() {
		n, _ := subEvents(subCtx) // ends when the source world is deleted
		preEvents <- n
	}()

	time.Sleep(300 * time.Millisecond) // let traffic and ticks build up

	var resp *MigrateResponse
	resp, err := g.migrate(MigrateRequest{Session: "mig", Target: dstName, Workers: 2})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if resp.From != srcName || resp.To != dstName {
		t.Errorf("migrate moved %s→%s, want %s→%s", resp.From, resp.To, srcName, dstName)
	}

	time.Sleep(300 * time.Millisecond) // traffic continues against the target
	close(stop)
	<-actorDone

	// Route repointed; source world gone; target owns it and is ticking.
	if owner, _ := g.RouteOf("mig"); owner != dstName {
		t.Errorf("route = %s, want %s", owner, dstName)
	}
	if _, found := nodes[srcIdx].reg.Get("mig"); found {
		t.Error("source node still has the world")
	}
	var st server.Status
	if code := do(t, http.MethodGet, gw.URL+"/v1/sessions/mig", nil, &st); code != http.StatusOK {
		t.Fatalf("status after migration: %d", code)
	}
	if !st.Running {
		t.Error("clock did not resume on the target")
	}
	if st.Tick < resp.Tick {
		t.Errorf("target at tick %d, below transfer tick %d", st.Tick, resp.Tick)
	}
	if st.Workers != 2 {
		t.Errorf("restore-time tuning lost: workers = %d, want 2", st.Workers)
	}

	// No acknowledged command lost: stop the clock, drain admission (a
	// checkpoint stamps every queued-but-unapplied command into the
	// journal), then count journal entries from the actor's origin.
	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions/mig/stop", nil, nil); code != http.StatusOK {
		t.Fatalf("stop: %d", code)
	}
	fetchCheckpoint(t, gw.URL, "mig")
	var jr server.JournalResponse
	if code := do(t, http.MethodGet, gw.URL+"/v1/sessions/mig/journal", nil, &jr); code != http.StatusOK {
		t.Fatalf("journal: %d", code)
	}
	fromActor := 0
	for _, e := range jr.Entries {
		if e.Origin == "actor" {
			fromActor++
		}
	}
	// Pending (not yet applied) commands live in the admission buffer
	// and the journal both — Checkpoint drains admission first — so the
	// journal count is exactly the ack count.
	if int64(fromActor) != acked.Load() {
		t.Errorf("journal has %d actor commands, %d were acknowledged", fromActor, acked.Load())
	}

	// The pre-migration subscriber stream ended (source deleted) after
	// delivering events; a fresh subscribe reaches the target.
	subCancel()
	select {
	case n := <-preEvents:
		if n == 0 {
			t.Error("subscriber saw no events before/through the migration")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pre-migration subscriber never ended")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if n, err := subEvents(ctx2); err == nil && n == 0 {
		t.Error("fresh subscription to the migrated world delivered nothing")
	}

	// Migrating a session with no route is a clean error.
	if _, err := g.migrate(MigrateRequest{Session: "ghost"}); err == nil {
		t.Error("migrating an unknown session did not fail")
	}
}

// hungCluster is two nodes behind a gateway whose control-plane client
// times out after bound. While hang is set, a node receiving a step
// request signals hung and does not pass it on until the test ends.
type hungCluster struct {
	g     *Gateway
	gw    *httptest.Server
	nodes []*node
	hang  atomic.Bool
	hung  chan struct{}
}

func newHungCluster(t *testing.T, bound time.Duration) *hungCluster {
	hc := &hungCluster{hung: make(chan struct{}, 1)}
	release := make(chan struct{})
	cfg := Config{ProbeEvery: time.Hour, Client: &http.Client{Timeout: bound}}
	hc.nodes = make([]*node, 2)
	for i := range hc.nodes {
		reg := server.NewRegistry()
		h := server.New(reg, t.TempDir())
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hc.hang.Load() && strings.HasSuffix(r.URL.Path, "/step") {
				hc.hung <- struct{}{}
				<-release
				return // the gateway gave up on this request long ago
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			reg.Close()
		})
		hc.nodes[i] = &node{ts: ts, reg: reg}
		cfg.Nodes = append(cfg.Nodes, Node{Name: fmt.Sprintf("node%d", i), URL: ts.URL})
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	hc.g = g
	hc.gw = httptest.NewServer(g)
	t.Cleanup(hc.gw.Close)
	// Runs before the servers close, which wait for the hung handlers.
	t.Cleanup(func() { close(release) })
	return hc
}

// hungStep posts one step through the gateway to a node that does not
// answer it, and returns the gateway's status code and how long it took.
func (hc *hungCluster) hungStep(t *testing.T, session string) (int, time.Duration) {
	t.Helper()
	hc.hang.Store(true)
	defer hc.hang.Store(false)
	start := time.Now()
	done := make(chan int, 1)
	go func() {
		code, err := try(http.MethodPost, hc.gw.URL+"/v1/sessions/"+session+"/step", server.StepRequest{Ticks: 1}, nil)
		if err != nil {
			t.Errorf("step: %v", err)
		}
		done <- code
	}()
	<-hc.hung // the step is in flight at the gateway, and its node is not answering
	hc.hang.Store(false)
	select {
	case code := <-done:
		return code, time.Since(start)
	case <-time.After(20 * time.Second):
		t.Fatal("the gateway is still waiting for a node that does not answer")
		return 0, 0
	}
}

// TestProxiedRequestDeadline pins the data-plane deadline: a proxied
// non-stream request to a node that never answers is a 504 within the
// gateway client's timeout, and releases its inflight slot; a stream
// through the same gateway outlives that timeout.
func TestProxiedRequestDeadline(t *testing.T) {
	const bound = 500 * time.Millisecond
	hc := newHungCluster(t, bound)
	if code := do(t, http.MethodPost, hc.gw.URL+"/v1/sessions", server.CreateRequest{Name: "h", Units: 64, Seed: 3}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	code, took := hc.hungStep(t, "h")
	if code != http.StatusGatewayTimeout || took < bound || took > 5*bound {
		t.Fatalf("step to a hung node: %d after %v, want 504 after about %v", code, took, bound)
	}
	rt, _ := hc.g.lookup("h")
	rt.mu.Lock()
	inflight := rt.inflight
	rt.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d requests still in flight after the 504", inflight)
	}

	// A subscription opened now is still delivering past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*bound)
	defer cancel()
	q := url.QueryEscape("aggregate Pos(u) := sum(e.posx) as sx over e;")
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, hc.gw.URL+"/v1/sessions/h/subscribe?q="+q, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: %d", resp.StatusCode)
	}
	time.Sleep(2 * bound)
	if code := do(t, http.MethodPost, hc.gw.URL+"/v1/sessions/h/step", server.StepRequest{Ticks: 4}, nil); code != http.StatusOK {
		t.Fatalf("step: %d", code)
	}
	// An answer past tick 0 is pushed only after the step, past the
	// deadline a non-stream request would have had.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.SubscribeEvent
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok && json.Unmarshal([]byte(data), &ev) == nil && ev.Tick > 0 {
			return
		}
	}
	t.Fatalf("the stream ended without the answer pushed past the deadline: %v", sc.Err())
}

// TestMigrationBoundedByHungNode pins the drain bound: a migration with
// nothing in flight does not wait; a request to a node that never
// answers no longer holds a migration, since the gateway answers it 504
// at its deadline; and one whose session keeps a request slot past every
// deadline (a response stuck on its way to the client) fails within the
// control-plane timeout — leaving the route, the source world and the
// target untouched, and the route free for other requests — and a later
// migration succeeds once the slot is released.
func TestMigrationBoundedByHungNode(t *testing.T) {
	const bound = time.Second
	hc := newHungCluster(t, bound)
	g, gw, nodes := hc.g, hc.gw, hc.nodes
	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions", server.CreateRequest{Name: "h", Units: 64, Seed: 3}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	migrate := func() (*MigrateResponse, time.Duration, error) {
		start := time.Now()
		type result struct {
			resp *MigrateResponse
			err  error
		}
		done := make(chan result, 1)
		go func() {
			resp, err := g.migrate(MigrateRequest{Session: "h"})
			done <- result{resp, err}
		}()
		select {
		case r := <-done:
			return r.resp, time.Since(start), r.err
		case <-time.After(10 * bound):
			t.Fatalf("the migration is still waiting after %v", 10*bound)
			return nil, 0, nil
		}
	}
	// Nothing has been in flight yet: the drain has nothing to wait for.
	first, took, err := migrate()
	if err != nil || took > bound/2 {
		t.Fatalf("migration of an idle route: %v after %v", err, took)
	}

	// A hung node: the step is cut at its deadline, the world never saw
	// it, and the migration after it does not wait.
	if code, took := hc.hungStep(t, "h"); code != http.StatusGatewayTimeout {
		t.Fatalf("step to a hung node: %d after %v, want 504", code, took)
	}
	second, took, err := migrate()
	if err != nil || took > bound/2 || second.Tick != 0 || second.From != first.To {
		t.Fatalf("migration after a 504: %+v, %v after %v; want from %s at tick 0 at once", second, err, took, first.To)
	}
	srcName := second.To
	srcIdx, dstIdx := 0, 1
	if srcName == "node1" {
		srcIdx, dstIdx = 1, 0
	}

	// A request slot held past every deadline.
	rt, _ := g.lookup("h")
	rt.acquire(false)
	if _, took, err := migrate(); err == nil || took > 5*bound {
		t.Fatalf("migration past a held request: err %v after %v, want an error within about %v", err, took, bound)
	}
	if owner, _ := g.RouteOf("h"); owner != srcName {
		t.Errorf("route = %s after a failed migration, want %s", owner, srcName)
	}
	if _, found := nodes[srcIdx].reg.Get("h"); !found {
		t.Error("the failed migration removed the source world")
	}
	if _, found := nodes[dstIdx].reg.Get("h"); found {
		t.Error("the failed migration left a world on the target")
	}
	if code := do(t, http.MethodPost, gw.URL+"/v1/sessions/h/step", server.StepRequest{Ticks: 1}, nil); code != http.StatusOK {
		t.Fatalf("step after the failed migration: %d", code)
	}
	rt.release(false)
	resp, _, err := migrate()
	if err != nil {
		t.Fatalf("migration after the slot was released: %v", err)
	}
	if owner, _ := g.RouteOf("h"); owner != resp.To || resp.From != srcName || resp.Tick != 1 {
		t.Errorf("migrated %s→%s at tick %d, route %s; want from %s at tick 1", resp.From, resp.To, resp.Tick, owner, srcName)
	}
}

// RouteOf reports which node currently owns a session.
func (g *Gateway) RouteOf(session string) (string, bool) {
	g.rmu.RLock()
	defer g.rmu.RUnlock()
	rt, ok := g.routes[session]
	if !ok {
		return "", false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.node.node.Name, true
}
