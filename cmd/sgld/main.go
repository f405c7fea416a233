// Command sgld is the multi-session simulation daemon: it hosts many
// named concurrent worlds behind an HTTP/JSON API, each with its own
// clock goroutine and per-session execution tuning, and exposes
// Prometheus-style counters on /metrics.
//
// Serve mode (the default):
//
//	sgld -addr :7070 -data ./sgld-data
//
//	curl -X POST localhost:7070/v1/sessions -d '{"name":"alpha","units":2000,"tickrate":10}'
//	curl localhost:7070/v1/sessions
//	curl -X POST localhost:7070/v1/sessions/alpha/query \
//	     -d '{"src":"aggregate N(u) := count(*) over e;","args":[]}'
//	curl -X POST localhost:7070/v1/sessions/alpha/checkpoint -d '{}'
//	curl -X POST localhost:7070/v1/sessions \
//	     -d '{"name":"beta","restore":"alpha.ckpt","workers":4}'
//
// Replica mode follows a writer daemon: each listed session is
// bootstrapped from the writer's checkpoint, kept current by replaying
// its streamed journal, and served locally for reads (queries, SSE
// subscriptions, checkpoints — mutations refuse with 409). If the
// writer compacts past the replica's cursor, the replica re-bootstraps
// by itself:
//
//	sgld -addr :7071 -follow http://writer:7070 -follow-sessions alpha,beta
//
// See docs/CLI.md for the full flag reference and docs/ARCHITECTURE.md
// for where the server sits in the system.
package main

import (
	"context"
	"errors"
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
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/metrics"
	"github.com/epicscale/sgl/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":7070", "HTTP listen address")
		dataDir = flag.String("data", "sgld-data", "checkpoint directory (empty disables file checkpoints)")

		follow     = flag.String("follow", "", "writer base URL to replicate from (replica mode; serves reads only)")
		followSess = flag.String("follow-sessions", "", "comma-separated writer sessions to replicate (required with -follow)")
		followWait = flag.Duration("follow-wait", 5*time.Second, "replica journal long-poll park time")
		followWork = flag.Int("follow-workers", 1, "replica engine workers per followed session")

		profile = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default)")
	)
	flag.Parse()

	if err := run(runConfig{
		addr: *addr, dataDir: *dataDir, pprof: *profile,
		follow: *follow, followSessions: *followSess, followWait: *followWait,
		followTune: engine.Options{Workers: *followWork},
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgld:", err)
		os.Exit(1)
	}
}

// runConfig is the parsed command line.
type runConfig struct {
	addr    string
	dataDir string
	// pprof mounts the profiling endpoints (metrics.WithProfiling).
	pprof bool

	// Replica mode: follow is the writer's base URL, followSessions the
	// comma-separated sessions to replicate. The daemon then serves those
	// worlds read-only (queries, subscriptions, checkpoints), refusing
	// mutation with 409.
	follow         string
	followSessions string
	followWait     time.Duration
	followTune     engine.Options
}

// run drives one sgld invocation (main minus flag parsing and exit, so
// tests can call it).
func run(cfg runConfig, out io.Writer) error {
	sessions, err := followedSessions(cfg)
	if err != nil {
		return err
	}
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return err
		}
	}
	return serve(cfg, sessions, out)
}

// followedSessions returns the sessions a replica follows, none outside
// replica mode. A daemon asked to be a replica must never come up as a
// writer, so -follow naming no session and -follow-sessions without
// -follow are errors, not no-ops.
func followedSessions(cfg runConfig) ([]string, error) {
	var names []string
	for _, name := range strings.Split(cfg.followSessions, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	switch {
	case cfg.follow == "" && cfg.followSessions != "":
		return nil, errors.New("-follow-sessions needs -follow")
	case cfg.follow != "" && len(names) == 0:
		return nil, errors.New("-follow needs at least one session in -follow-sessions")
	}
	return names, nil
}

// handler is what the daemon serves: the API server, behind the
// profiling endpoints when -pprof is set.
func handler(srv http.Handler, pprof bool) http.Handler {
	if pprof {
		return metrics.WithProfiling(srv)
	}
	return srv
}

// serve runs the daemon until SIGINT/SIGTERM, then stops every clock.
// In replica mode it first bootstraps a replica world per followed
// session (failing fast on a bad writer URL or session name) and keeps
// each one replaying the writer's journal until shutdown.
func serve(cfg runConfig, sessions []string, out io.Writer) error {
	reg := server.NewRegistry()
	httpSrv := &http.Server{Addr: cfg.addr, Handler: handler(server.New(reg, cfg.dataDir), cfg.pprof)}

	var followers []*cluster.Follower
	defer func() {
		for _, f := range followers {
			f.Stop()
		}
	}()
	for _, name := range sessions {
		f, err := cluster.StartFollower(cluster.FollowerConfig{
			Writer: strings.TrimSuffix(cfg.follow, "/"), Session: name,
			Registry: reg, Tune: cfg.followTune, Wait: cfg.followWait,
		})
		if err != nil {
			return err
		}
		followers = append(followers, f)
		fmt.Fprintf(out, "sgld: replicating %s from %s (at tick %d)\n", name, cfg.follow, f.World().Session().Tick())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sgld: serving on http://%s (data dir %q)\n", ln.Addr(), cfg.dataDir)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "sgld: %v, shutting down\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	reg.Close()
	return nil
}
