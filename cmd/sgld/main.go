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
// Load-generator mode drives a fleet of worlds with spectator query
// fan-out — and, with -actors, command-injecting actors exercising the
// sharded admission path, and with -subscribers, SSE push subscribers
// holding …/subscribe streams — and prints per-session tick-rate and
// latency tables (plus pushed-vs-poll-equivalent volume for
// subscribers). -compact turns on end-of-tick journal compaction in
// every world, the right pairing for a long actor-heavy run.
// With -base it targets a running daemon; without, it spins up an
// in-process server first, so one command proves the serving layer end
// to end:
//
//	sgld -loadgen -worlds 8 -spectators 4 -actors 2 -duration 10s
//
// See docs/CLI.md for the full flag reference and docs/ARCHITECTURE.md
// for where the server sits in the system.
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
		followIncr = flag.Bool("follow-incremental", false, "replica incremental index maintenance per followed session")

		loadgen    = flag.Bool("loadgen", false, "run the load generator instead of serving")
		base       = flag.String("base", "", "loadgen target base URL (empty = spin up an in-process server)")
		worlds     = flag.Int("worlds", 8, "loadgen: concurrent worlds")
		units      = flag.Int("units", 1000, "loadgen: units per world")
		density    = flag.Float64("density", 0.01, "loadgen: army density")
		seed       = flag.Uint64("seed", 42, "loadgen: base seed (world i runs seed+i)")
		tickrate   = flag.Float64("tickrate", 10, "loadgen: clock target per world in ticks/s (0 = uncapped)")
		spectators = flag.Int("spectators", 4, "loadgen: concurrent spectators per world")
		actors     = flag.Int("actors", 0, "loadgen: concurrent command-injecting actors per world")
		subs       = flag.Int("subscribers", 0, "loadgen: push subscribers (SSE) per world")
		duration   = flag.Duration("duration", 10*time.Second, "loadgen: measurement window")
		workers    = flag.Int("workers", 1, "loadgen: engine workers per world")
		incr       = flag.Bool("incremental", false, "loadgen: incremental index maintenance per world")
		compact    = flag.Bool("compact", false, "loadgen: end-of-tick journal compaction per world (keeps checkpoints flat under actor traffic)")
	)
	flag.Parse()

	if err := run(runConfig{
		addr: *addr, dataDir: *dataDir,
		follow: *follow, followSessions: *followSess, followWait: *followWait,
		followTune: engine.Options{Workers: *followWork, Incremental: *followIncr},
		loadgen:    *loadgen, base: *base,
		lg: server.LoadGenConfig{
			Worlds: *worlds, Units: *units, Density: *density, Seed: *seed,
			TickRate: *tickrate, Spectators: *spectators, Actors: *actors, Subscribers: *subs, Duration: *duration,
			Workers: *workers, Incremental: *incr, Compact: *compact,
		},
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sgld:", err)
		os.Exit(1)
	}
}

// runConfig is the parsed command line.
type runConfig struct {
	addr    string
	dataDir string

	// Replica mode: follow is the writer's base URL, followSessions the
	// comma-separated sessions to replicate. The daemon then serves those
	// worlds read-only (queries, subscriptions, checkpoints), refusing
	// mutation with 409.
	follow         string
	followSessions string
	followWait     time.Duration
	followTune     engine.Options

	loadgen bool
	base    string
	lg      server.LoadGenConfig
}

// run drives one sgld invocation (main minus flag parsing and exit, so
// tests can call it).
func run(cfg runConfig, out io.Writer) error {
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			return err
		}
	}
	if cfg.loadgen {
		return runLoadGen(cfg, out)
	}
	return serve(cfg, out)
}

// serve runs the daemon until SIGINT/SIGTERM, then stops every clock.
// With -follow it first bootstraps a replica world per followed session
// (failing fast on a bad writer URL or session name) and keeps each one
// replaying the writer's journal until shutdown.
func serve(cfg runConfig, out io.Writer) error {
	reg := server.NewRegistry()
	srv := server.New(reg, cfg.dataDir)
	httpSrv := &http.Server{Addr: cfg.addr, Handler: srv}

	var followers []*cluster.Follower
	if cfg.follow != "" {
		if cfg.followSessions == "" {
			return fmt.Errorf("-follow needs -follow-sessions")
		}
		for _, name := range strings.Split(cfg.followSessions, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			f, err := cluster.StartFollower(cluster.FollowerConfig{
				Writer: strings.TrimSuffix(cfg.follow, "/"), Session: name,
				Registry: reg, Tune: cfg.followTune, Wait: cfg.followWait,
			})
			if err != nil {
				for _, started := range followers {
					started.Stop()
				}
				return err
			}
			followers = append(followers, f)
			fmt.Fprintf(out, "sgld: replicating %s from %s (at tick %d)\n", name, cfg.follow, f.World().Session().Tick())
		}
		defer func() {
			for _, f := range followers {
				f.Stop()
			}
		}()
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

// runLoadGen drives the load generator, spinning up an in-process server
// on a loopback port when no -base was given, and prints the per-world
// table plus the server's own /metrics counters.
func runLoadGen(cfg runConfig, out io.Writer) error {
	baseURL := cfg.base
	var reg *server.Registry
	if baseURL == "" {
		reg = server.NewRegistry()
		srv := server.New(reg, cfg.dataDir)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv}
		go httpSrv.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			httpSrv.Shutdown(ctx)
			reg.Close()
		}()
		baseURL = "http://" + ln.Addr().String()
		fmt.Fprintf(out, "sgld: in-process server on %s\n", baseURL)
	}

	lg := cfg.lg
	lg.BaseURL = baseURL
	fmt.Fprintf(out, "sgld: loadgen — %d worlds × %d units, %d spectators + %d actors + %d subscribers/world, %.0f ticks/s target, %s window\n",
		lg.Worlds, lg.Units, lg.Spectators, lg.Actors, lg.Subscribers, lg.TickRate, lg.Duration)
	rows, err := server.LoadGen(lg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	metrics.WriteLoadGen(out, rows)
	if reg != nil {
		fmt.Fprintln(out, "\nserver counters:")
		reg.WritePrometheus(out)
	}
	return nil
}
