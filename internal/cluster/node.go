// Package cluster is the multi-node tier over sgld: a gateway that
// places sessions on a fleet of daemons and proxies their routes
// (cmd/sglgw), plus journal-streaming follower replicas that serve
// spectator load off the writer (sgld -follow).
//
// The sixth byte-exactness contract lives here: a world driven through
// the gateway — creates, commands, spectators, subscriptions, even a
// live migration mid-run — checkpoints byte-identically to the same
// traffic sent straight at a node (TestRoutedMatchesDirect), and a
// follower replica bootstrapped from the writer's checkpoint and
// advanced over its journal answers queries byte-identically to the
// writer at the same tick (TestReplicaMatchesWriter). Both stand on
// contracts #3 (checkpoints are a migration vehicle) and #5 (replayed ≡
// live): the cluster tier adds routing, not semantics.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"time"

	"github.com/epicscale/sgl/internal/server"
)

// Node is one sgld daemon in the fleet, as configured.
type Node struct {
	// Name identifies the node in placement hashing and operator APIs; it
	// must be stable across gateway restarts (rendezvous scores hash it).
	Name string `json:"name"`
	// URL is the node's base URL, e.g. "http://10.0.0.7:8080".
	URL string `json:"url"`
}

// nodeState is a Node plus the gateway's live view of it: the reverse
// proxy that fronts it, and the last health probe's verdict and load.
type nodeState struct {
	node   Node
	target *url.URL
	proxy  *httputil.ReverseProxy

	// alive is the last probe's verdict; a dead node receives no new
	// placements (existing routes keep pointing at it — a blip must not
	// strand sessions).
	alive atomic.Bool
	// worlds is the node's world count from the last /readyz probe,
	// nudged optimistically on create/migrate so bursts between probes
	// still spread.
	worlds atomic.Int64
	// probeErr is the last probe failure, for /gw/nodes ("" when alive).
	probeErr atomic.Value // string
}

// NodeStatus is one node's row in the gateway's /gw/nodes report.
type NodeStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Worlds   int64  `json:"worlds"`
	ProbeErr string `json:"probe_error,omitempty"`
}

func newNodeState(n Node) (*nodeState, error) {
	target, err := url.Parse(n.URL)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: parse url %q: %w", n.Name, n.URL, err)
	}
	if target.Scheme == "" || target.Host == "" {
		return nil, fmt.Errorf("cluster: node %s: url %q needs a scheme and host", n.Name, n.URL)
	}
	ns := &nodeState{node: n, target: target}
	ns.probeErr.Store("")
	// Rewrite-based proxy: the request path is already the node's path
	// (the gateway serves the same /v1/sessions tree), so only the
	// destination changes. Go's ReverseProxy flushes text/event-stream
	// responses per write, which is what lets /subscribe stream through
	// this hop (pinned by TestSubscribeThroughReverseProxy on the server
	// side and the gateway differentials here).
	ns.proxy = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			pr.SetURL(target)
			pr.SetXForwarded()
		},
		// A request the gateway gave a deadline (handleProxy) and the
		// node did not answer within it is a 504; any other failure to
		// reach the node a 502.
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			if r.Context().Err() == context.DeadlineExceeded {
				writeErr(w, http.StatusGatewayTimeout, "gateway: node %s did not answer in time: %v", n.Name, err)
				return
			}
			writeErr(w, http.StatusBadGateway, "gateway: node %s: %v", n.Name, err)
		},
	}
	return ns, nil
}

// status snapshots the node for /gw/nodes.
func (ns *nodeState) status() NodeStatus {
	return NodeStatus{
		Name:     ns.node.Name,
		URL:      ns.node.URL,
		Alive:    ns.alive.Load(),
		Worlds:   ns.worlds.Load(),
		ProbeErr: ns.probeErr.Load().(string),
	}
}

// probe hits the node's /readyz and updates alive + load.
func (ns *nodeState) probe(client *http.Client) {
	resp, err := client.Get(ns.node.URL + "/readyz")
	if err != nil {
		ns.alive.Store(false)
		ns.probeErr.Store(err.Error())
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		ns.alive.Store(false)
		ns.probeErr.Store(fmt.Sprintf("readyz status %d", resp.StatusCode))
		return
	}
	var ready server.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		ns.alive.Store(false)
		ns.probeErr.Store(fmt.Sprintf("readyz decode: %v", err))
		return
	}
	ns.worlds.Store(int64(ready.Worlds))
	ns.probeErr.Store("")
	ns.alive.Store(true)
}

// defaultProbeEvery is the health probe cadence when Config leaves it 0.
const defaultProbeEvery = 2 * time.Second

// probeLoop re-probes every node on a fixed cadence until stop closes.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	t := time.NewTicker(g.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.ProbeNow()
		}
	}
}

// ProbeNow probes every node once, synchronously. Start calls it before
// serving (placement needs a live view immediately); tests call it to
// refresh load counts deterministically.
func (g *Gateway) ProbeNow() {
	for _, ns := range g.nodes {
		ns.probe(g.client)
	}
	alive := 0
	for _, ns := range g.nodes {
		if ns.alive.Load() {
			alive++
		}
	}
	g.nodesAlive.Set(float64(alive))
}
