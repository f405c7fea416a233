package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/epicscale/sgl/internal/metrics"
	"github.com/epicscale/sgl/internal/server"
)

// Config configures a Gateway.
type Config struct {
	// Nodes is the static fleet, at least one entry. Node names feed the
	// rendezvous hash, so renaming a node reshuffles future placements
	// (existing routes are unaffected — they are pinned by name).
	Nodes []Node
	// ProbeEvery is the health probe cadence (default 2s).
	ProbeEvery time.Duration
	// Client is the control-plane HTTP client (probes, migration
	// transfers, route discovery). Defaults to a 30s-timeout client; its
	// timeout also bounds a migration's wait for in-flight requests. The
	// data-plane proxying uses each node's ReverseProxy transport and is
	// unaffected by this timeout.
	Client *http.Client
}

// Gateway places sessions on a fleet of sgld nodes and proxies the
// whole /v1/sessions tree to the owning node, so clients speak to a
// cluster exactly as they would to one daemon (contract #6: routed ≡
// direct). It adds only the cluster-control surface: GET /gw/nodes and
// POST /gw/migrate.
type Gateway struct {
	nodes  []*nodeState // fixed, in configured order
	byName map[string]*nodeState
	client *http.Client

	mux *http.ServeMux

	// Metrics is the gateway's own registry (sglgw_* series), served on
	// /metrics. Node daemons keep their own.
	Metrics *metrics.Registry

	rmu    sync.RWMutex
	routes map[string]*route

	nodesAlive  *metrics.Gauge
	routesGauge *metrics.Gauge
	proxiedErrs *metrics.Counter
	migrations  *metrics.Counter
	migrateErrs *metrics.Counter

	probeEvery time.Duration
	stop       chan struct{}
	probeDone  chan struct{}

	startOnce sync.Once
	closeOnce sync.Once
}

// route binds a session name to its owning node. The binding is stable
// except during a live migration, which holds new non-stream requests
// (migrating), drains the in-flight ones (inflight), moves the world,
// and repoints node — so no request ever observes the world on zero or
// two nodes.
type route struct {
	mu        sync.Mutex
	node      *nodeState
	migrating chan struct{} // non-nil while a migration owns the route; closed when released
	// inflight counts proxied non-stream requests. Streams (SSE
	// subscribe, journal long-polls) are excluded: they are long-lived by
	// design and a migration must not wait for them — an open subscribe
	// to the source ends when the source world is deleted, and the
	// client's reconnect lands on the target. idle, non-nil while
	// inflight is not zero, closes when it drops to zero.
	inflight int
	idle     chan struct{}
}

// acquire returns the route's current node, blocking while a migration
// holds the route. Non-stream requests are counted into inflight; the
// caller must release with the same stream flag.
func (rt *route) acquire(stream bool) *nodeState {
	for {
		rt.mu.Lock()
		ch := rt.migrating
		if ch == nil {
			ns := rt.node
			if !stream {
				if rt.inflight++; rt.inflight == 1 {
					rt.idle = make(chan struct{})
				}
			}
			rt.mu.Unlock()
			return ns
		}
		rt.mu.Unlock()
		<-ch
	}
}

func (rt *route) release(stream bool) {
	if stream {
		return
	}
	rt.mu.Lock()
	if rt.inflight--; rt.inflight == 0 {
		close(rt.idle)
		rt.idle = nil
	}
	rt.mu.Unlock()
}

// New builds a gateway over the configured fleet. Call Start to begin
// health probing (and before serving, so placement has a live view).
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: a gateway needs at least one node")
	}
	g := &Gateway{
		byName:     make(map[string]*nodeState, len(cfg.Nodes)),
		client:     cfg.Client,
		Metrics:    &metrics.Registry{},
		routes:     make(map[string]*route),
		probeEvery: cfg.ProbeEvery,
		stop:       make(chan struct{}),
		probeDone:  make(chan struct{}),
	}
	if g.client == nil {
		g.client = &http.Client{Timeout: 30 * time.Second}
	}
	if g.probeEvery <= 0 {
		g.probeEvery = defaultProbeEvery
	}
	for _, n := range cfg.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: node with url %q needs a name", n.URL)
		}
		if _, dup := g.byName[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		ns, err := newNodeState(n)
		if err != nil {
			return nil, err
		}
		g.nodes = append(g.nodes, ns)
		g.byName[n.Name] = ns
	}

	g.Metrics.Help("sglgw_nodes_alive", "Nodes whose last health probe succeeded.")
	g.Metrics.Help("sglgw_routes", "Sessions the gateway currently routes.")
	g.Metrics.Help("sglgw_proxied_total", "Requests proxied, per node.")
	g.Metrics.Help("sglgw_proxy_errors_total", "Proxied requests that failed to reach their node.")
	g.Metrics.Help("sglgw_placements_total", "Sessions placed, per node.")
	g.Metrics.Help("sglgw_migrations_total", "Live migrations completed.")
	g.Metrics.Help("sglgw_migration_errors_total", "Live migrations aborted (source restored).")
	g.nodesAlive = g.Metrics.Gauge("sglgw_nodes_alive")
	g.routesGauge = g.Metrics.Gauge("sglgw_routes")
	g.proxiedErrs = g.Metrics.Counter("sglgw_proxy_errors_total")
	g.migrations = g.Metrics.Counter("sglgw_migrations_total")
	g.migrateErrs = g.Metrics.Counter("sglgw_migration_errors_total")

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/sessions", g.handleCreate)
	g.mux.HandleFunc("GET /v1/sessions", g.handleList)
	g.mux.HandleFunc("/v1/sessions/{name}", g.handleProxy)
	g.mux.HandleFunc("/v1/sessions/{name}/{rest...}", g.handleProxy)
	g.mux.HandleFunc("GET /gw/nodes", g.handleNodes)
	g.mux.HandleFunc("POST /gw/migrate", g.handleMigrate)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return g, nil
}

// Start probes every node once (synchronously, so the first placement
// sees real liveness) and launches the periodic probe loop.
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		g.ProbeNow()
		go g.probeLoop()
	})
}

// Close stops the probe loop. Proxied requests in flight complete;
// routed worlds keep running on their nodes.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		g.startOnce.Do(func() { close(g.probeDone) }) // never started: unblock the wait
		<-g.probeDone
	})
}

// ServeHTTP serves the gateway API.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// lookup resolves a session's route. On a miss it sweeps the fleet
// (GET /v1/sessions/{name} per alive node) and adopts the first owner
// found — so a restarted gateway relearns its table lazily instead of
// 404ing worlds that are alive and well.
func (g *Gateway) lookup(name string) (*route, bool) {
	g.rmu.RLock()
	rt, ok := g.routes[name]
	g.rmu.RUnlock()
	if ok {
		return rt, true
	}
	for _, ns := range g.nodes {
		if !ns.alive.Load() {
			continue
		}
		resp, err := g.client.Get(ns.node.URL + "/v1/sessions/" + name)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return g.adoptRoute(name, ns), true
		}
	}
	return nil, false
}

// adoptRoute records name → ns, keeping an existing route if a
// concurrent adopter won.
func (g *Gateway) adoptRoute(name string, ns *nodeState) *route {
	g.rmu.Lock()
	defer g.rmu.Unlock()
	if rt, ok := g.routes[name]; ok {
		return rt
	}
	rt := &route{node: ns}
	g.routes[name] = rt
	g.routesGauge.Set(float64(len(g.routes)))
	return rt
}

func (g *Gateway) dropRoute(name string) {
	g.rmu.Lock()
	delete(g.routes, name)
	g.routesGauge.Set(float64(len(g.routes)))
	g.rmu.Unlock()
}

// isStream reports whether a request opens a long-lived response: SSE
// subscriptions and journal long-polls. Streams bypass the migration
// inflight count (a migration cannot wait for them to end).
func isStream(r *http.Request) bool {
	if strings.HasSuffix(r.URL.Path, "/subscribe") {
		return true
	}
	return strings.HasSuffix(r.URL.Path, "/journal") && r.URL.Query().Get("wait") != ""
}

// statusRecorder captures the proxied status code so the gateway can
// maintain its route table from the node's answer (e.g. drop the route
// after a successful DELETE).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush forwards flushes so SSE still streams through the recorder.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handleProxy forwards any /v1/sessions/{name}[/...] request to the
// owning node, holding the route stable against concurrent migration.
// A non-stream request gets the control-plane client's timeout as its
// deadline: a node that does not answer within it is a 504, and the
// request's inflight slot is released, so a hung node holds neither the
// client nor a migration's drain. Streams are long-lived by design and
// get none.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt, ok := g.lookup(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "gateway: no session %q on any node", name)
		return
	}
	stream := isStream(r)
	ns := rt.acquire(stream)
	defer rt.release(stream)
	if !stream && g.client.Timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), g.client.Timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}

	rec := &statusRecorder{ResponseWriter: w}
	g.Metrics.Counter("sglgw_proxied_total", metrics.L("node", ns.node.Name)).Inc()
	ns.proxy.ServeHTTP(rec, r)

	// A successful DELETE of the session itself retires the route and
	// releases the node's load slot.
	if r.Method == http.MethodDelete && r.URL.Path == "/v1/sessions/"+name &&
		rec.status >= 200 && rec.status < 300 {
		g.dropRoute(name)
		ns.worlds.Add(-1)
	}
}

// handleCreate is the placement point: it decodes just enough of the
// create body to learn the session name, picks a node (rendezvous order,
// least-loaded tie-break, dead nodes skipped), forwards the request
// verbatim, and records the route on success.
func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusRequestEntityTooLarge, "gateway: create body: %v", err)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "gateway: create body: %v", err)
		return
	}
	if req.Name == "" {
		writeErr(w, http.StatusBadRequest, "gateway: create needs a session name")
		return
	}

	// An existing route pins the name to its node: forward there and let
	// the node answer (409 if the world exists; a re-create after an
	// out-of-band delete lands on the same node, keeping the route true).
	g.rmu.RLock()
	rt, routed := g.routes[req.Name]
	g.rmu.RUnlock()
	var ns *nodeState
	if routed {
		ns = rt.acquire(false)
		defer rt.release(false)
	} else {
		candidates := g.place(req.Name)
		if len(candidates) == 0 {
			writeErr(w, http.StatusServiceUnavailable, "gateway: no alive node to place %q on", req.Name)
			return
		}
		ns = candidates[0]
	}

	resp, err := g.client.Post(ns.node.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		g.proxiedErrs.Inc()
		writeErr(w, http.StatusBadGateway, "gateway: node %s: %v", ns.node.Name, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated && !routed {
		g.adoptRoute(req.Name, ns)
		ns.worlds.Add(1)
		g.Metrics.Counter("sglgw_placements_total", metrics.L("node", ns.node.Name)).Inc()
	}
	copyResponse(w, resp)
}

// copyResponse relays a node's response (headers, status, body) to the
// client.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleList merges every alive node's session list, sorted by name —
// the same shape one daemon serves, fleet-wide.
func (g *Gateway) handleList(w http.ResponseWriter, _ *http.Request) {
	type result struct {
		statuses []server.Status
		err      error
	}
	results := make([]result, len(g.nodes))
	var wg sync.WaitGroup
	for i, ns := range g.nodes {
		if !ns.alive.Load() {
			continue
		}
		wg.Add(1)
		go func(i int, ns *nodeState) {
			defer wg.Done()
			resp, err := g.client.Get(ns.node.URL + "/v1/sessions")
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			results[i].err = json.NewDecoder(resp.Body).Decode(&results[i].statuses)
		}(i, ns)
	}
	wg.Wait()
	merged := make([]server.Status, 0, 8)
	for _, res := range results {
		if res.err == nil {
			merged = append(merged, res.statuses...)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Name < merged[j].Name })
	writeJSON(w, http.StatusOK, merged)
}

// handleNodes reports the fleet: configuration, liveness, load.
func (g *Gateway) handleNodes(w http.ResponseWriter, _ *http.Request) {
	statuses := make([]NodeStatus, 0, len(g.nodes))
	for _, ns := range g.nodes {
		statuses = append(statuses, ns.status())
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g.Metrics.WritePrometheus(w)
}

// NodeStatuses snapshots the fleet for embedders (sglgw's startup line
// and tests); the HTTP surface is GET /gw/nodes.
func (g *Gateway) NodeStatuses() []NodeStatus {
	statuses := make([]NodeStatus, 0, len(g.nodes))
	for _, ns := range g.nodes {
		statuses = append(statuses, ns.status())
	}
	return statuses
}
