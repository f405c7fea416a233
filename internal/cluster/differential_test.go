package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/metrics"
	"github.com/epicscale/sgl/internal/server"
)

// TestRoutedMatchesDirect is the sixth exactness contract: routed ≡
// direct. A world created, commanded, stepped, spectated and subscribed
// to entirely through the sglgw gateway (two nodes behind it) must
// checkpoint byte-identically to the same traffic sent straight at a
// single daemon. The gateway adds routing, not semantics: if proxying
// ever reordered, dropped, duplicated or mangled a request — or if
// placement ever leaked into world state — the bytes would diverge.
//
// It runs the battle script plus every zoo program with the routed side
// at Workers=4 against the direct side's Workers=1, and Incremental
// flipped between the two, both ways round: contract #6 stacked on #1
// (parallel ≡ serial), #2 (maintained ≡ rebuilt) and #4 (served ≡
// standalone). Each Incremental pairing has one gateway over two nodes
// that hosts all of its routed worlds, one per script, driven by
// parallel subtests. Placement hashes the session name, so the full set
// of scripts lands on both nodes; once every subtest is done, each
// node's placement counter must be nonzero.
func TestRoutedMatchesDirect(t *testing.T) {
	const (
		units   = 120
		density = 0.02
		seed    = 17
		ticks   = 8
	)

	scripts := []struct{ name, src string }{{"battle", game.Script}}
	for _, z := range exec.Zoo {
		scripts = append(scripts, struct{ name, src string }{z.Name, z.Src})
	}
	// One cluster per pairing, keyed by the routed side's Incremental.
	// Cleanup runs after the parallel subtests finish, and before the
	// clusters' own cleanups close them.
	type fleet struct {
		g      *Gateway
		gw     *httptest.Server
		routed atomic.Int64
	}
	fleets := map[bool]*fleet{}
	for _, routedInc := range []bool{false, true} {
		g, gw, _ := newCluster(t, 2)
		fleets[routedInc] = &fleet{g: g, gw: gw}
	}
	t.Cleanup(func() {
		for routedInc, f := range fleets {
			var placed float64
			for _, ns := range f.g.NodeStatuses() {
				n := f.g.Metrics.Counter("sglgw_placements_total", metrics.L("node", ns.Name)).Value()
				placed += n
				// A -run filter may route too few worlds to reach both
				// nodes; the full set of names does.
				if n == 0 && f.routed.Load() == int64(len(scripts)) {
					t.Errorf("routed inc=%v: node %s received no placements out of %d worlds", routedInc, ns.Name, len(scripts))
				}
			}
			if placed != float64(f.routed.Load()) {
				t.Errorf("routed inc=%v: %v placements for %d routed worlds", routedInc, placed, f.routed.Load())
			}
		}
	})

	for _, sc := range scripts {
		for _, routedInc := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/w=1v4/inc=%vv%v", sc.name, !routedInc, routedInc), func(t *testing.T) {
				t.Parallel()
				direct := newNode(t)
				directCk := runTraffic(t, direct.ts.URL, sc.name, sc.src, trafficConfig{
					units: units, density: density, seed: seed, ticks: ticks,
					workers: 1, incremental: !routedInc,
				})

				f := fleets[routedInc]
				f.routed.Add(1)
				routedCk := runTraffic(t, f.gw.URL, sc.name, sc.src, trafficConfig{
					units: units, density: density, seed: seed, ticks: ticks,
					workers: 4, incremental: routedInc,
				})

				if !bytes.Equal(directCk, routedCk) {
					t.Errorf("%s routed inc=%v: routed checkpoint differs from direct (contract #6 violated)", sc.name, routedInc)
				}
			})
		}
	}
}

type trafficConfig struct {
	units       int
	density     float64
	seed        uint64
	ticks       int
	workers     int
	incremental bool
}

// runTraffic drives one world, session name, through a base URL —
// gateway or daemon, the traffic cannot tell — with deterministic
// command injection at every tick boundary, racing spectator queries,
// and a live SSE subscription, then returns its checkpoint bytes.
func runTraffic(t *testing.T, base, name, src string, cfg trafficConfig) []byte {
	t.Helper()
	code := do(t, http.MethodPost, base+"/v1/sessions", server.CreateRequest{
		Name: name, Script: src,
		Units: cfg.units, Density: cfg.density, Seed: cfg.seed,
		Workers: cfg.workers, Incremental: cfg.incremental,
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("create via %s: %d", base, code)
	}

	// One SSE subscription held across the whole run: subscribe traffic
	// must flow through the same hop and must not perturb the bytes.
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	subReq, err := http.NewRequestWithContext(subCtx, http.MethodGet,
		base+"/v1/sessions/"+name+"/subscribe?q="+url.QueryEscape(`aggregate Pop(u) := count(*) over e;`), nil)
	if err != nil {
		t.Fatal(err)
	}
	subResp, err := http.DefaultClient.Do(subReq)
	if err != nil {
		t.Fatal(err)
	}
	defer subResp.Body.Close()
	if subResp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe via %s: %d", base, subResp.StatusCode)
	}
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		sc := bufio.NewScanner(subResp.Body)
		for sc.Scan() {
		} // drain until canceled; events themselves are pinned elsewhere
	}()

	// Racing spectators: reads must not perturb the world.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, req := range []server.QueryRequest{
		{Src: `aggregate Pop(u) := count(*) as n, sum(e.health) as hp over e;`},
		{Src: `aggregate Pop(u) := count(*) as n, sum(e.health) as hp over e;`, Scan: true},
	} {
		wg.Add(1)
		go func(req server.QueryRequest) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := try(http.MethodPost, base+"/v1/sessions/"+name+"/query", req, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(req)
	}

	// Deterministic command traffic: a batch before every step, stamped
	// by the synchronous request/step alternation into identical
	// (tick, origin, seq) order on both sides of the differential.
	for tick := 0; tick < cfg.ticks; tick++ {
		cmds := []server.WireCommand{
			{Op: "set", Key: int64((tick * 7) % cfg.units), Col: "health", Val: float64(40 + tick)},
		}
		if tick%3 == 1 {
			cmds = append(cmds, server.WireCommand{Op: "despawn", Key: int64((tick * 11) % cfg.units)})
		}
		if tick%4 == 2 {
			cmds = append(cmds, server.WireCommand{Op: "set", Key: int64(tick % cfg.units), Col: "posx", Val: float64(3 * tick)})
		}
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+name+"/commands", server.CommandsRequest{
			Origin: "actor", Commands: cmds,
		}, nil); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("commands via %s at tick %d: %d", base, tick, code)
		}
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+name+"/step", server.StepRequest{Ticks: 1}, nil); code != http.StatusOK {
			t.Fatalf("step via %s at tick %d: %d", base, tick, code)
		}
	}
	close(stop)
	wg.Wait()
	subCancel()
	<-subDone

	return fetchCheckpoint(t, base, name)
}
