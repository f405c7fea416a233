package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/server"
)

// FollowerConfig configures one replica world following one writer
// session.
type FollowerConfig struct {
	// Writer is the writer daemon's base URL (or the gateway's — the
	// journal route proxies like any other).
	Writer string
	// Session is the writer-side session name to follow.
	Session string
	// As is the local replica world's name; empty uses Session.
	As string
	// Registry is the local daemon's registry the replica world is
	// published into.
	Registry *server.Registry
	// Tune is the replica engine's restore-time tuning (Workers,
	// CompactJournal). Determinism-neutral by contract #3, so a replica
	// may run different tuning than its writer and still answer
	// byte-identically.
	Tune engine.Options
	// Wait is each journal long-poll's park time (default 5s; the writer
	// caps it at 30s). Smaller means faster shutdown, more requests.
	Wait time.Duration
	// Client is the HTTP client. The follower uses a copy whose Timeout
	// bounds every request to the writer at twice Wait plus a second: a
	// poll parks at most Wait there, so a writer that has not answered by
	// then is silent, not slow. Stop cancels in-flight requests.
	Client *http.Client
}

// Follower replays one writer session's journal into a local replica
// world: bootstrap from the writer's checkpoint, then loop on
// GET …/journal?since=<local tick>&wait=… and advance the replica
// through every completed writer tick. Contract #5 (replayed ≡ live)
// makes the replica's state — and therefore every Query*/subscribe
// answer it serves — byte-identical to the writer's at the same tick.
//
// When the writer compacts its journal past the replica's cursor the
// poll comes back 410 Gone; the follower recovers by fetching a fresh
// checkpoint and re-publishing the replica from it (its base is by
// construction at or past the compaction base). Subscribers see their
// stream end and reconnect, exactly as they would on a world delete.
type Follower struct {
	cfg  FollowerConfig
	name string

	mu    sync.Mutex
	world *server.World // current replica world; replaced on recovery

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	recoveries atomic.Int64
	lastErr    atomic.Value // string
}

// StartFollower bootstraps the replica (synchronously, so a bad writer
// URL or name fails fast) and starts the replication loop.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	f, err := newFollower(cfg)
	if err != nil {
		return nil, err
	}
	go f.loop()
	return f, nil
}

// newFollower validates the config and bootstraps the replica without
// starting the loop — tests drive sync by hand to sequence the
// fall-behind/compact/recover dance deterministically.
func newFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("cluster: follower needs a registry")
	}
	if cfg.Writer == "" || cfg.Session == "" {
		return nil, fmt.Errorf("cluster: follower needs a writer URL and session name")
	}
	if cfg.As == "" {
		cfg.As = cfg.Session
	}
	if cfg.Wait <= 0 {
		cfg.Wait = 5 * time.Second
	}
	client := http.Client{}
	if cfg.Client != nil {
		client = *cfg.Client
	}
	client.Timeout = 2*cfg.Wait + time.Second
	cfg.Client = &client
	ctx, cancel := context.WithCancel(context.Background())
	f := &Follower{cfg: cfg, name: cfg.As, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	f.lastErr.Store("")
	w, err := f.bootstrap()
	if err != nil {
		cancel()
		return nil, err
	}
	f.world = w
	return f, nil
}

// Name returns the local replica world's name.
func (f *Follower) Name() string { return f.name }

// World returns the current replica world (replaced after a compaction
// recovery — callers should not cache it across recoveries).
func (f *Follower) World() *server.World {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.world
}

// Recoveries counts checkpoint re-bootstraps forced by writer
// compaction (the 410 path).
func (f *Follower) Recoveries() int64 { return f.recoveries.Load() }

// Err returns the last replication error ("" when healthy). Transient:
// the loop keeps retrying until Stop.
func (f *Follower) Err() string { return f.lastErr.Load().(string) }

// Stop halts the replication loop (canceling any parked long-poll) and
// removes the replica world from the registry.
func (f *Follower) Stop() {
	f.cancel()
	<-f.done
	f.cfg.Registry.Delete(f.name)
}

// get requests path from the writer, retrying once when an attempt gets
// no answer (a silent or unreachable writer).
func (f *Follower) get(path string) (resp *http.Response, err error) {
	for attempt := 0; attempt < 2 && f.ctx.Err() == nil; attempt++ {
		var req *http.Request
		if req, err = http.NewRequestWithContext(f.ctx, http.MethodGet, f.cfg.Writer+path, nil); err != nil {
			return nil, err
		}
		if resp, err = f.cfg.Client.Do(req); err == nil {
			return resp, nil
		}
	}
	return nil, err
}

// bootstrap fetches the writer's checkpoint and publishes the replica
// world from it.
func (f *Follower) bootstrap() (*server.World, error) {
	resp, err := f.get("/v1/sessions/" + f.cfg.Session + "/checkpoint")
	if err != nil {
		return nil, fmt.Errorf("cluster: follower %s: fetch checkpoint: %w", f.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: follower %s: fetch checkpoint: status %d", f.name, resp.StatusCode)
	}
	sess, err := engine.Open(resp.Body, game.NewMechanics(), f.cfg.Tune)
	if err != nil {
		return nil, fmt.Errorf("cluster: follower %s: open checkpoint: %w", f.name, err)
	}
	return f.cfg.Registry.RegisterReplica(f.name, sess)
}

// loop drives sync until Stop, backing off briefly on transient errors
// so a writer restart is an outage, not a spin.
func (f *Follower) loop() {
	defer close(f.done)
	for {
		if f.ctx.Err() != nil {
			return
		}
		err := f.sync()
		switch {
		case err == nil:
			f.lastErr.Store("")
		case f.ctx.Err() != nil:
			return
		default:
			f.lastErr.Store(err.Error())
			select {
			case <-f.ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
		}
	}
}

// sync runs one replication round: long-poll the journal suffix from
// the replica's tick, replay it, update the lag gauge.
func (f *Follower) sync() error {
	w := f.World()
	cursor := w.Session().Tick()
	resp, err := f.get(fmt.Sprintf("/v1/sessions/%s/journal?since=%d&wait=%s", f.cfg.Session, cursor, f.cfg.Wait))
	if err != nil {
		return fmt.Errorf("journal poll: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The writer compacted past our cursor: the journal can no longer
		// replay us forward, but a fresh checkpoint can replace us.
		io.Copy(io.Discard, resp.Body)
		return f.recover()
	default:
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("journal poll: status %d", resp.StatusCode)
	}
	var jr server.JournalResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return fmt.Errorf("journal poll: decode: %w", err)
	}
	// The observed gap, then the residue after replay (0 when caught
	// up): the gauge reads as "how stale is this replica right now".
	w.SetReplicaLag(jr.Tick - cursor)
	if jr.Tick > cursor {
		if err := w.ReplicaAdvance(jr.Tick, jr.Entries); err != nil {
			// Replay must never diverge; if it does (a writer reset, a
			// corrupted transfer), re-bootstrapping from the writer's
			// current state is the only honest recovery.
			f.lastErr.Store(err.Error())
			return f.recover()
		}
	}
	w.SetReplicaLag(jr.Tick - w.Session().Tick())
	return nil
}

// recover replaces the replica world with one opened from the writer's
// current checkpoint. Re-publishing (delete + register) rather than
// swapping in place keeps the replica-world invariants trivial; the
// cost is that subscribers reconnect, which they already handle for
// world deletes.
func (f *Follower) recover() error {
	f.cfg.Registry.Delete(f.name)
	w, err := f.bootstrap()
	if err != nil {
		return fmt.Errorf("recover after compaction: %w", err)
	}
	f.mu.Lock()
	f.world = w
	f.mu.Unlock()
	f.recoveries.Add(1)
	return nil
}
