// Command sglgw is the cluster gateway: it fronts a static fleet of
// sgld nodes, places each new session on a node by rendezvous hashing
// (least-loaded tie-break, dead nodes skipped), and proxies the whole
// /v1/sessions tree — including SSE subscriptions and journal
// long-polls — to the owning node. Clients speak to the cluster exactly
// as they would to one daemon (contract #6: routed ≡ direct).
//
//	sglgw -addr :7080 -nodes http://10.0.0.1:7070,http://10.0.0.2:7070
//
//	curl -X POST localhost:7080/v1/sessions -d '{"name":"alpha","units":2000}'
//	curl localhost:7080/gw/nodes
//	curl -X POST localhost:7080/gw/migrate -d '{"session":"alpha","target":"node1"}'
//
// Nodes may be named explicitly with name=url entries
// (-nodes east=http://10.0.0.1:7070,west=http://10.0.0.2:7070);
// bare URLs get node0, node1, … in flag order. Names feed the
// rendezvous hash, so keep them stable across gateway restarts — the
// gateway relearns existing placements lazily (adopt-on-miss), but new
// placements follow the names.
//
// See docs/CLI.md for the flag reference and docs/ARCHITECTURE.md for
// the cluster tier's design.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/epicscale/sgl/internal/cluster"
	"github.com/epicscale/sgl/internal/metrics"
)

func main() {
	var (
		addr  = flag.String("addr", ":7080", "HTTP listen address")
		nodes = flag.String("nodes", "", "comma-separated sgld nodes: url or name=url (required)")
		probe = flag.Duration("probe", 2*time.Second, "health probe cadence")
		prof  = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	if err := run(*addr, *nodes, *probe, *prof, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sglgw:", err)
		os.Exit(1)
	}
}

// parseNodes turns the -nodes flag into the fleet: "url" entries are
// named node0, node1, … in order; "name=url" entries name themselves.
func parseNodes(raw string) ([]cluster.Node, error) {
	var out []cluster.Node
	for i, entry := range strings.Split(raw, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url, named := strings.Cut(entry, "=")
		if !named {
			name, url = fmt.Sprintf("node%d", i), entry
		}
		out = append(out, cluster.Node{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-nodes needs at least one sgld URL")
	}
	return out, nil
}

// handler is what the gateway serves: the gateway itself, behind the
// profiling endpoints when -pprof is set.
func handler(gw http.Handler, pprof bool) http.Handler {
	if pprof {
		return metrics.WithProfiling(gw)
	}
	return gw
}

// run drives one sglgw invocation (main minus flag parsing and exit, so
// tests can call it).
func run(addr, rawNodes string, probe time.Duration, pprof bool, out io.Writer) error {
	nodes, err := parseNodes(rawNodes)
	if err != nil {
		return err
	}
	gw, err := cluster.New(cluster.Config{Nodes: nodes, ProbeEvery: probe})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	alive := 0
	for _, ns := range gw.NodeStatuses() {
		if ns.Alive {
			alive++
		}
	}
	fmt.Fprintf(out, "sglgw: serving on http://%s, fronting %d nodes (%d alive)\n", ln.Addr(), len(nodes), alive)

	httpSrv := &http.Server{Handler: handler(gw, pprof)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "sglgw: %v, shutting down\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}
