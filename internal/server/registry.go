// Package server hosts many concurrent simulation worlds behind an
// HTTP/JSON API: the serving layer between the single-world Session API
// and "heavy traffic from millions of users".
//
// A Registry owns a set of named Worlds. Each World wraps an
// engine.Session — so it inherits the session's discipline (spectator
// queries fan out lock-free over the read view each tick publishes; the
// clock and checkpointing interleave safely under its lock) — and adds
// what a daemon needs on top: an optional clock goroutine stepping the
// world at a target tick rate, a compile-once observation-query cache
// keyed by source text (every request for the same source shares one
// engine-side index build per tick through the existing Fork path), and
// per-session Prometheus counters in a metrics.Registry.
//
// The fourth exactness contract lives here: a world served under
// concurrent spectator load produces checkpoints byte-identical to the
// same (script, spec, seed, ticks) run standalone, because queries are
// pure reads of the frozen snapshot and the clock is the only writer.
// TestServedMatchesStandalone pins it over HTTP.
package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/metrics"
	"github.com/epicscale/sgl/internal/sgl/lint"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// Sentinel errors handlers map to HTTP statuses.
var (
	// ErrExists reports a session-name collision on create.
	ErrExists = errors.New("session already exists")
	// ErrClockRunning reports an operation that requires a paused clock.
	ErrClockRunning = errors.New("clock is running")
	// ErrReplica reports a mutating operation on a follower replica
	// world, which only its replication loop may advance.
	ErrReplica = errors.New("replica world is read-only")
)

// Name rules: both sessions and checkpoint files must be flat path
// components (they appear in URLs, metric labels, and file paths under
// the data directory) of [A-Za-z0-9._-], not starting with a dot or
// dash (which rules out "..", hidden files, and flag-like names).
// Sessions are capped at 120 chars and files at 128, so the derived
// "<session>.ckpt" name of a maximum-length session is still a file
// name the restore API accepts.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,119}$`)
	fileRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)
)

// ValidName reports whether s is acceptable as a session name
// (1–120 chars, see the name rules above).
func ValidName(s string) bool { return nameRE.MatchString(s) }

// ValidFileName reports whether s is acceptable as a checkpoint file
// name (1–128 chars, see the name rules above).
func ValidFileName(s string) bool { return fileRE.MatchString(s) }

// Bounds on client-supplied world specs (see Registry.Create).
const (
	// MaxWorldUnits caps one world's army. Far above the paper's
	// experiments (12k), far below an allocation that endangers the
	// daemon.
	MaxWorldUnits = 1_000_000
	// MaxWorldDensity caps grid occupancy. The paper's experiments top
	// out at 8%; beyond ~1/6 the BattleLines formation (each player
	// confined to a third of the grid) cannot place the army at all and
	// generation would loop forever.
	MaxWorldDensity = 0.125
	// maxNaivePairs caps a naive world's units²: the naive engine scans
	// every row for every unit's probes each tick, so its tick costs n²
	// row visits (under a second at 2 000 units on a 2-vCPU Xeon; at
	// MaxWorldUnits it would take days). 4 000², where the paper's naive
	// curve ends, is a tick of a few seconds.
	maxNaivePairs = 4000 * 4000
)

// WorldSpec is everything needed to build a fresh world. The server
// hosts worlds over the battle schema and mechanics — the script is the
// variable part, exactly as in the paper's setup where behavior is data.
type WorldSpec struct {
	// Script is the SGL source; empty selects the built-in battle script.
	Script string
	// Army generation (workload.Spec minus the formation enum).
	Units     int
	Density   float64
	Seed      uint64
	Formation workload.Formation
	// Engine tuning.
	Mode engine.Mode
	Tune engine.Options // Workers / CompactJournal
	// TickRate starts the world's clock at registration: 0 leaves it
	// paused, > 0 targets that many ticks/second, < 0 runs uncapped.
	// Starting inside registration is deliberate — a world published
	// first and clock-started second would leave a window where another
	// client's /run, /step, or delete makes the start fail with the
	// world already visible.
	TickRate float64
}

// World is one hosted simulation: a session plus the serving state the
// registry adds. All methods are safe for concurrent use.
type World struct {
	Name string

	sess    *engine.Session
	prog    *sem.Program
	created time.Time
	// warnings are the script's lint diagnostics, computed once at
	// registration (a registered script compiles, so they are all
	// warn-severity). Returned in the create response and by Warnings().
	warnings []lint.Diagnostic

	mu  sync.Mutex // guards clk, clockErr, rate, stepping, deleted
	clk *clock
	// clockErr records a tick error that stopped the clock; surfaced on
	// the next status read.
	clockErr error
	rate     float64
	// stepping counts synchronous Steps in flight, so StartClock cannot
	// slip in between Step's clock check and the step itself.
	stepping int
	// deleted marks a world removed from the registry: its clock may
	// never start again (an orphaned clock goroutine would be
	// unreachable by StopClock and run until process exit).
	deleted bool

	// stepMu serializes synchronous Step calls (see Step).
	stepMu sync.Mutex

	// failure is the first panic raised on the world, by its clock or a
	// handler (see fail); once set, every request naming the world but a
	// delete is a 503 carrying it.
	failure  atomic.Pointer[error]
	failures *metrics.Counter // sgld_session_failures_total, shared

	qmu     sync.Mutex
	queries map[string]*cachedQuery // compile-once cache, keyed by source
	qseq    uint64                  // use counter for LRU eviction

	// Push subscriptions (subscribe.go). submu guards subs and subsClosed;
	// subsDone is closed exactly once, when the world is deleted, to
	// release every streaming handler.
	submu      sync.Mutex
	subs       map[*subscriber]struct{}
	subsClosed bool
	subsDone   chan struct{}

	// Tick broadcast: tickCh is closed and replaced after every completed
	// tick (under tmu), so journal long-polls (GET …/journal?wait=) can
	// block until the world moves without polling.
	tmu    sync.Mutex
	tickCh chan struct{}

	// replica marks a follower world: it is advanced only by its
	// replication loop (ReplicaAdvance), never by clients — Step,
	// StartClock, Submit and Compact refuse with ErrReplica. lagTicks is
	// the last writer-tick minus local-tick gap the loop reported.
	replica    bool
	lagTicks   atomic.Int64
	replicaLag *metrics.Gauge // sgld_replica_lag_ticks{session=…}; nil for primaries

	ticks         *metrics.Counter
	tickSecs      *metrics.Histogram
	queriesTotal  *metrics.Counter
	querySecs     *metrics.Counter
	queryErrs     *metrics.Counter
	checkpoints   *metrics.Counter
	commandsTotal *metrics.Counter
	commandSecs   *metrics.Counter
	commandErrs   *metrics.Counter
	subscribers   *metrics.Gauge
	pushes        *metrics.Counter
	pushDrops     *metrics.Counter
	// The read path's total lives in the engine (readers bump it
	// lock-free); WritePrometheus copies it here at scrape time.
	queryOneShot *metrics.Counter
	// tickWork holds the tickWorkGauges series, set at scrape time from
	// the newest view.
	tickWork []*metrics.Gauge
}

// tickWorkGauges are the index work counts of a world's last tick, which
// WritePrometheus reads off the newest view: clock-free counts of what
// the tick reused, carried, certified and re-sorted, and what its range
// probes' bound searches cost.
var tickWorkGauges = []struct {
	name, help string
	value      func(exec.Stats) float64
}{
	{"sgld_tick_carried_answers", "Aggregate answers the last tick carried over from the tick before instead of probing, per session.",
		func(s exec.Stats) float64 { return float64(s.CarriedAnswers) }},
	{"sgld_tick_certified_answers", "Nearest answers the last tick took from the tick before under a separation certificate instead of searching, per session.",
		func(s exec.Stats) float64 { return float64(s.CertifiedAnswers) }},
	{"sgld_tick_index_reuses", "Index structures the last tick's maintenance kept unchanged, per session.",
		func(s exec.Stats) float64 { return float64(s.IndexReuses) }},
	{"sgld_tick_index_patches", "Range trees and folds the last tick's maintenance re-summed in place, per session.",
		func(s exec.Stats) float64 { return float64(s.IndexPatches) }},
	{"sgld_tick_maintain_fallbacks", "Definitions the last tick's maintenance left reading a structure rebuilt from scratch, per session.",
		func(s exec.Stats) float64 { return float64(s.MaintainFallbacks) }},
	{"sgld_tick_resort_moves", "Element moves the last tick's index rebuilds made re-sorting from the previous tick's order, per session.",
		func(s exec.Stats) float64 { return float64(s.ResortMoves) }},
	{"sgld_tick_resort_fallbacks", "Index rebuild sorts in the last tick that spent their move budget and finished with a full sort, per session.",
		func(s exec.Stats) float64 { return float64(s.ResortFallbacks) }},
	{"sgld_tick_bound_steps_per_probe", "Bound-search comparisons per range-tree probe in the last tick (0 without probes), per session.",
		func(s exec.Stats) float64 {
			if s.TreeProbes == 0 {
				return 0
			}
			return float64(s.BoundSteps) / float64(s.TreeProbes)
		}},
}

// cachedQuery is one compile-once cache slot; seq is the recency stamp
// (guarded by qmu) LRU eviction compares. The lint warnings ride the
// cache so N spectators of one source pay for one lint run.
type cachedQuery struct {
	q     *engine.Query
	warns []lint.Diagnostic
	seq   uint64
}

// clock is one run of a world's clock goroutine. The stop channel is
// closed by exactly one owner: StopClock takes ownership of the clock by
// swapping it out of the world first, so a clock that exits on its own
// (tick error) never races the close.
type clock struct {
	stop chan struct{}
	done chan struct{}
}

// Session exposes the wrapped session (for tests and embedders).
func (w *World) Session() *engine.Session { return w.sess }

// Warnings returns the script's lint diagnostics (never nil). The slice
// is computed once at registration and must not be mutated.
func (w *World) Warnings() []lint.Diagnostic { return w.warnings }

// SubmitCommands injects a validated command batch into the world's
// input buffer (see engine.Submit), counting acceptances and rejections
// in the per-session metrics. The returned tick is the world's committed
// tick at admission — a lower bound on the stamp the batch will carry:
// admission takes no session lock, and the batch is stamped at the next
// tick or checkpoint boundary that drains it.
func (w *World) SubmitCommands(origin string, cmds []engine.Command) (int64, error) {
	if w.replica {
		w.commandErrs.Inc()
		return 0, fmt.Errorf("server: world %s: %w; submit to the writer", w.Name, ErrReplica)
	}
	tick, err := w.sess.SubmitTick(origin, cmds...)
	if err != nil {
		w.commandErrs.Inc()
		return tick, err
	}
	w.commandsTotal.Add(float64(len(cmds)))
	return tick, nil
}

// Status is a point-in-time summary of a world.
type Status struct {
	Name     string  `json:"name"`
	Tick     int64   `json:"tick"`
	Units    int     `json:"units"`
	Workers  int     `json:"workers"`
	Running  bool    `json:"running"`
	TickRate float64 `json:"tickrate,omitempty"` // target; 0 = uncapped
	Deaths   int     `json:"deaths"`
	Moves    int     `json:"moves"`
	ClockErr string  `json:"clock_error,omitempty"`
	// Replica marks a follower world replaying its writer's journal;
	// LagTicks is the writer-tick gap its replication loop last reported.
	Replica  bool  `json:"replica,omitempty"`
	LagTicks int64 `json:"lag_ticks,omitempty"`
	// Created is when the world was registered (RFC 3339).
	Created time.Time `json:"created"`
}

// Status snapshots the world's serving state. Tick, population and the
// run counters come from one read view, so they all describe the same
// committed tick; no session lock is taken, so a status read (and a
// listing of many worlds) never waits for a tick in progress.
func (w *World) Status() Status {
	v := w.sess.ReadView()
	st := Status{
		Name: w.Name, Created: w.created, Replica: w.replica, LagTicks: w.lagTicks.Load(),
		Tick: v.Tick(), Units: v.Units(), Deaths: v.Deaths(), Moves: v.Moves(),
		Workers: w.sess.Engine().Workers(),
	}
	w.mu.Lock()
	st.Running = w.clk != nil
	st.TickRate = w.rate
	if w.clockErr != nil {
		st.ClockErr = w.clockErr.Error()
	}
	w.mu.Unlock()
	return st
}

// Step advances the world n ticks synchronously. It refuses while the
// clock is running — mixing a free-running clock with synchronous steps
// would make "the tick the client asked for" meaningless. Concurrent
// Step calls serialize on stepMu: letting them interleave would be
// memory-safe (the session lock covers each tick) but each caller's
// before/after tick delta would span the other's ticks, double-counting
// sgld_ticks_total.
func (w *World) Step(n int) error {
	if w.replica {
		return fmt.Errorf("server: world %s: %w; it follows its writer's journal", w.Name, ErrReplica)
	}
	w.stepMu.Lock()
	defer w.stepMu.Unlock()
	w.mu.Lock()
	if w.clk != nil {
		w.mu.Unlock()
		return fmt.Errorf("server: world %s: %w; stop it before stepping", w.Name, ErrClockRunning)
	}
	w.stepping++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.stepping--
		w.mu.Unlock()
	}()
	// Count the ticks that actually ran: a mid-batch error still
	// advanced the world, and the counter must track the real clock.
	// Stepping one tick at a time (instead of one Step(n) batch) keeps
	// push subscribers at full freshness: they see every tick boundary,
	// exactly as under the clock.
	before := w.sess.Tick()
	var err error
	for i := 0; i < n; i++ {
		if err = w.step(); err != nil {
			break
		}
		w.notifySubscribers()
	}
	w.ticks.Add(float64(w.sess.Tick() - before))
	return err
}

// step advances the session one tick and records how long it took in
// sgld_tick_seconds: every tick the server drives — a client's step, the
// clock's, a replica's — runs through here. The wall clock is read here,
// never inside the engine, so the timing changes no byte of the world.
func (w *World) step() error {
	start := time.Now()
	err := w.sess.Step(1)
	if err == nil {
		w.tickSecs.Observe(time.Since(start).Seconds())
	}
	return err
}

// StartClock launches the clock goroutine stepping the world at rate
// ticks per second (rate <= 0 runs uncapped). It fails if the clock is
// already running.
func (w *World) StartClock(rate float64) error {
	if w.replica {
		return fmt.Errorf("server: world %s: %w; its cadence is the writer's", w.Name, ErrReplica)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.deleted {
		return fmt.Errorf("server: world %s: deleted", w.Name)
	}
	if w.stepping > 0 {
		return fmt.Errorf("server: world %s: synchronous step in progress", w.Name)
	}
	if w.clk != nil {
		return fmt.Errorf("server: world %s: clock already running", w.Name)
	}
	clk := &clock{stop: make(chan struct{}), done: make(chan struct{})}
	w.clk = clk
	w.clockErr = nil
	w.rate = rate
	go w.clockLoop(clk, rate)
	return nil
}

// clockLoop is the world's clock goroutine: one Step(1) per period. The
// cadence is absolute (next = start + n·period), so a slow tick borrows
// from the following idle time instead of permanently lagging the rate.
func (w *World) clockLoop(clk *clock, rate float64) {
	defer close(clk.done)
	defer func() {
		if v := recover(); v != nil {
			w.endClock(clk, w.fail(v))
		}
	}()
	var period time.Duration
	if rate > 0 {
		// Guard the float→Duration conversion: a tiny rate (1e-10) makes
		// seconds-per-tick overflow int64, and the implementation-defined
		// conversion of an out-of-range float can yield a negative
		// period — turning a nearly-paused clock into an uncapped busy
		// loop. Clamp to MaxInt64 (~292 years/tick) instead.
		p := float64(time.Second) / rate
		if p >= float64(math.MaxInt64) {
			period = time.Duration(math.MaxInt64)
		} else {
			period = time.Duration(p)
		}
	}
	// One timer for the clock's whole run: every wait below either
	// receives from it or ends the loop, so each Reset finds it expired
	// and drained, and a capped clock allocates nothing between ticks.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	start := time.Now()
	for n := int64(1); ; n++ {
		select {
		case <-clk.stop:
			return
		default:
		}
		if err := w.step(); err != nil {
			w.endClock(clk, err)
			return
		}
		w.ticks.Inc()
		w.notifySubscribers()
		if period > 0 {
			next := start.Add(time.Duration(n) * period)
			if d := time.Until(next); d > 0 {
				if timer == nil {
					timer = time.NewTimer(d)
				} else {
					timer.Reset(d)
				}
				select {
				case <-clk.stop:
					return
				case <-timer.C:
				}
			} else if -d > 4*period {
				// Badly behind (CPU contention, a long checkpoint):
				// re-anchor instead of repaying the whole debt as an
				// uncapped burst that would starve every other world.
				// Bounded catch-up (≤ 4 ticks) still smooths small
				// stalls.
				start = time.Now().Add(-time.Duration(n) * period)
			}
		}
	}
}

// endClock records why the clock stopped on its own and lets it go.
func (w *World) endClock(clk *clock, err error) {
	w.mu.Lock()
	w.clockErr = err
	if w.clk == clk {
		w.clk = nil
	}
	w.mu.Unlock()
}

// fail marks the world failed by the panic v and counts the failure; the
// first panic sticks. It returns the error that names the world's last
// committed tick, which every later request on the world gets. Other
// worlds are untouched: the panic never leaves the goroutine that
// recovered it.
func (w *World) fail(v any) error {
	err := fmt.Errorf("server: world %s failed after tick %d: panic: %v", w.Name, w.sess.Tick(), v)
	if w.failure.CompareAndSwap(nil, &err) {
		w.failures.Inc()
	}
	return *w.failure.Load()
}

// failed returns the failure that stopped the world, or nil.
func (w *World) failed() error {
	if err := w.failure.Load(); err != nil {
		return *err
	}
	return nil
}

// StopClock stops the clock goroutine and waits for it to finish the
// tick in flight. Stopping a stopped clock is a no-op.
func (w *World) StopClock() {
	w.mu.Lock()
	clk := w.clk
	w.clk = nil
	w.mu.Unlock()
	if clk == nil {
		return
	}
	close(clk.stop)
	<-clk.done
}

// CompiledQuery returns the compiled observation query for src, compiling
// it at most once per world. Returning the same *engine.Query pointer for
// the same source is what lets N spectators share one analysis (the
// Query owns it) and one membership scan per view — a view's providers
// are keyed by query identity, not source text.
func (w *World) CompiledQuery(src string) (*engine.Query, []lint.Diagnostic, error) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	w.qseq++
	if c, ok := w.queries[src]; ok {
		c.seq = w.qseq
		return c.q, c.warns, nil
	}
	q, err := engine.CompileQuery(src, w.prog.Schema, w.prog.Consts)
	if err != nil {
		return nil, nil, err
	}
	// Lint once per cached source: the compile succeeded, so everything
	// the linter finds is warn-severity (notably SGL104, "this output
	// falls back to a per-probe scan").
	warns := lint.Lint(src, lint.Options{
		Mode:         lint.ModeQuery,
		Schema:       w.prog.Schema,
		Consts:       w.prog.Consts,
		Categoricals: game.Categoricals(),
	})
	if w.queries == nil {
		w.queries = map[string]*cachedQuery{}
	}
	// Bound the cache like a read view bounds its providers: a client
	// generating unbounded distinct sources must not pin unbounded
	// programs and analyses. Eviction is LRU by use stamp — safe because
	// CompileQuery is pure, so an evicted hot source merely recompiles —
	// and keeps the popular sources (and their analyses) warm where
	// dropping the whole map would cold-start every spectator at once.
	for len(w.queries) >= maxCachedQuerySources {
		var lruSrc string
		var lru *cachedQuery
		for s, c := range w.queries {
			if lru == nil || c.seq < lru.seq {
				lruSrc, lru = s, c
			}
		}
		delete(w.queries, lruSrc)
	}
	w.queries[src] = &cachedQuery{q: q, warns: warns, seq: w.qseq}
	return q, warns, nil
}

// maxCachedQuerySources bounds a world's source-text query cache.
const maxCachedQuerySources = 256

// Checkpoint writes the world's checkpoint to wr under the session's
// reader lock: spectators keep querying, the clock waits for the write.
func (w *World) Checkpoint(wr io.Writer) error { return w.sess.Checkpoint(wr) }

// Replica reports whether this world is a follower replica.
func (w *World) Replica() bool { return w.replica }

// SetReplicaLag records the writer-tick gap the replication loop last
// observed; surfaced in Status, /readyz and sgld_replica_lag_ticks.
func (w *World) SetReplicaLag(lag int64) {
	w.lagTicks.Store(lag)
	if w.replicaLag != nil {
		w.replicaLag.Set(float64(lag))
	}
}

// bumpTick broadcasts a completed tick to journal long-polls. Called by
// notifySubscribers, which runs after every successful Step(1) on the
// world's single stepping goroutine (clock, synchronous Step, or the
// replication loop).
func (w *World) bumpTick() {
	w.tmu.Lock()
	close(w.tickCh)
	w.tickCh = make(chan struct{})
	w.tmu.Unlock()
}

// WaitTick blocks until the world's committed tick count exceeds after,
// the timeout elapses, or the world is deleted, and reports whether the
// tick now exceeds after. Its tick reads take no session lock, so the
// wait wakes on the commit itself, not a whole tick later. This is the
// long-poll primitive behind GET …/journal?since=N&wait=…: a follower
// replica parks here instead of hammering the endpoint between ticks.
func (w *World) WaitTick(after int64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if w.sess.Tick() > after {
			return true
		}
		w.tmu.Lock()
		ch := w.tickCh
		w.tmu.Unlock()
		// Re-check after capturing the channel: a tick landing in between
		// closed the channel we now hold, but one landing before the
		// capture closed its predecessor — only the state answers.
		if w.sess.Tick() > after {
			return true
		}
		select {
		case <-ch:
		case <-w.subsDone:
			return w.sess.Tick() > after
		case <-deadline.C:
			return w.sess.Tick() > after
		}
	}
}

// replicaStamp identifies a journal entry within one tick (the tick is
// the loop variable in ReplicaAdvance).
type replicaStamp struct {
	origin string
	seq    uint64
}

// ReplicaAdvance replays journal entries and steps the replica world to
// the target tick: for each tick t below target it submits the entries
// stamped t+1 — the batch the step to t+1 applies at its commit —
// skipping stamps already pending (the bootstrap checkpoint carries the
// writer's pending buffer, and the first poll after a recovery re-serves
// those entries), and steps once, notifying push subscribers exactly as
// a clock tick would. Entries stamped past target are ignored: the writer
// may still be accepting commands for them, so the caller re-requests
// them next round (see cluster.Follower); the batch stamped target is
// final once the writer has committed target. Only the replication loop
// calls this; it refuses on a non-replica world.
func (w *World) ReplicaAdvance(target int64, entries []engine.StampedCommand) error {
	if !w.replica {
		return fmt.Errorf("server: world %s: ReplicaAdvance on a primary world", w.Name)
	}
	w.stepMu.Lock()
	defer w.stepMu.Unlock()
	before := w.sess.Tick()
	defer func() { w.ticks.Add(float64(w.sess.Tick() - before)) }()
	for {
		t := w.sess.Tick()
		if t >= target {
			return nil
		}
		var pending map[replicaStamp]bool
		for _, sc := range entries {
			if sc.Tick != t+1 {
				continue
			}
			if pending == nil {
				pending = map[replicaStamp]bool{}
				for _, p := range w.sess.Pending() {
					pending[replicaStamp{p.Origin, p.Seq}] = true
				}
			}
			if pending[replicaStamp{sc.Origin, sc.Seq}] {
				continue
			}
			if err := w.sess.SubmitStamped(sc); err != nil {
				return fmt.Errorf("server: replica %s: replay tick %d: %w", w.Name, t+1, err)
			}
		}
		if err := w.step(); err != nil {
			return fmt.Errorf("server: replica %s: step: %w", w.Name, err)
		}
		w.notifySubscribers()
	}
}

// ---------------------------------------------------------------------------
// Registry

// naiveBound refuses a naive world of more units than maxNaivePairs
// allows: the one rule create, restore and replica bootstrap share.
func naiveBound(mode engine.Mode, units int) error {
	if mode == engine.Naive && units*units > maxNaivePairs {
		return fmt.Errorf("server: a naive world of %d units costs %d unit pairs a tick, over the limit %d (4000 units): use indexed mode",
			units, units*units, maxNaivePairs)
	}
	return nil
}

// Registry is the set of live worlds a server hosts. All methods are
// safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	worlds map[string]*World

	// Metrics is the Prometheus-style registry all per-world counters
	// live in; the server also exposes it on /metrics.
	Metrics *metrics.Registry
}

// NewRegistry returns an empty registry with its own metrics registry.
func NewRegistry() *Registry {
	r := &Registry{worlds: map[string]*World{}, Metrics: &metrics.Registry{}}
	r.Metrics.Help("sgld_worlds", "Worlds currently hosted.")
	r.Metrics.Help("sgld_sessions_created_total", "Worlds created since start.")
	r.Metrics.Help("sgld_sessions_deleted_total", "Worlds deleted since start.")
	r.Metrics.Help("sgld_ticks_total", "Clock ticks advanced, per session.")
	r.Metrics.Help("sgld_tick_seconds", "Wall time of each tick the server drives (client step, clock, replica), per session.")
	r.Metrics.Help("sgld_queries_total", "Observation queries served, per session.")
	r.Metrics.Help("sgld_query_seconds_total", "Time spent evaluating observation queries, per session.")
	r.Metrics.Help("sgld_query_errors_total", "Observation queries rejected or failed, per session.")
	r.Metrics.Help("sgld_query_oneshot_total", "Indexed query probes evaluated one-shot on a read view, without an index: every indexed /query probe and every subscription push. Per session.")
	r.Metrics.Help("sgld_checkpoints_total", "Checkpoints written, per session.")
	r.Metrics.Help("sgld_commands_total", "Injected commands accepted, per session.")
	r.Metrics.Help("sgld_command_seconds_total", "Time spent accepting injected commands, per session.")
	r.Metrics.Help("sgld_command_errors_total", "Injected command batches rejected, per session.")
	r.Metrics.Help("sgld_restores_total", "Worlds created by restoring a checkpoint.")
	r.Metrics.Help("sgld_subscribers", "Live push subscribers, per session.")
	r.Metrics.Help("sgld_pushes_total", "Answer events pushed to subscribers, per session.")
	r.Metrics.Help("sgld_push_drops_total", "Answer events dropped on slow subscribers (resynced on the next push), per session.")
	r.Metrics.Help("sgld_replica_lag_ticks", "Writer-tick gap a follower replica last observed, per session.")
	r.Metrics.Help("sgld_session_failures_total", "Worlds failed by a panic in their clock or a handler; each is a 503 from then on.")
	for _, g := range tickWorkGauges {
		r.Metrics.Help(g.name, g.help)
	}
	// Materialize the unlabeled series eagerly: a fresh daemon must
	// expose sgld_worlds 0 (not an absent metric that trips no-data
	// alerts) before the first session ever arrives.
	r.Metrics.Gauge("sgld_worlds").Set(0)
	r.Metrics.Counter("sgld_sessions_created_total")
	r.Metrics.Counter("sgld_sessions_deleted_total")
	r.Metrics.Counter("sgld_restores_total")
	r.Metrics.Counter("sgld_session_failures_total")
	return r
}

// compileWorldScript compiles src (or the built-in battle script when
// empty) against the battle schema and constants.
func compileWorldScript(src string) (*sem.Program, error) {
	if src == "" {
		src = game.Script
	}
	script, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return sem.Check(script, game.Schema(), game.Consts())
}

// attachCounters creates the world's per-session metric series. It must
// run inside the registry's critical section, after the duplicate-name
// check: created any earlier, a concurrent Delete of the same name could
// hand this world the dying world's series and then delete them, leaving
// the new world's counters orphaned from /metrics for its lifetime. The
// counters are held as pointers so handlers never get-or-create
// per-session series at request time (the mirror image of the same
// race: a late request must not resurrect a deleted session's series).
func (r *Registry) attachCounters(w *World) {
	l := metrics.L("session", w.Name)
	w.ticks = r.Metrics.Counter("sgld_ticks_total", l)
	w.tickSecs = r.Metrics.Histogram("sgld_tick_seconds", l)
	w.queriesTotal = r.Metrics.Counter("sgld_queries_total", l)
	w.querySecs = r.Metrics.Counter("sgld_query_seconds_total", l)
	w.queryErrs = r.Metrics.Counter("sgld_query_errors_total", l)
	w.checkpoints = r.Metrics.Counter("sgld_checkpoints_total", l)
	w.commandsTotal = r.Metrics.Counter("sgld_commands_total", l)
	w.commandSecs = r.Metrics.Counter("sgld_command_seconds_total", l)
	w.commandErrs = r.Metrics.Counter("sgld_command_errors_total", l)
	w.subscribers = r.Metrics.Gauge("sgld_subscribers", l)
	w.pushes = r.Metrics.Counter("sgld_pushes_total", l)
	w.pushDrops = r.Metrics.Counter("sgld_push_drops_total", l)
	w.queryOneShot = r.Metrics.Counter("sgld_query_oneshot_total", l)
	w.failures = r.Metrics.Counter("sgld_session_failures_total")
	w.tickWork = make([]*metrics.Gauge, len(tickWorkGauges))
	for i, g := range tickWorkGauges {
		w.tickWork[i] = r.Metrics.Gauge(g.name, l)
	}
}

// WritePrometheus renders the registry's metrics, first refreshing the
// series whose values the engines keep: each world's one-shot probes,
// and its last tick's work counts, read off its newest view — so a
// scrape writes nothing an engine reads.
func (r *Registry) WritePrometheus(out io.Writer) {
	r.mu.Lock()
	for _, w := range r.worlds {
		w.queryOneShot.Raise(float64(w.sess.Engine().QueryOneShots()))
		work := w.sess.ReadView().TickWork()
		for i, g := range tickWorkGauges {
			w.tickWork[i].Set(g.value(work))
		}
	}
	r.mu.Unlock()
	r.Metrics.WritePrometheus(out)
}

// Create builds a fresh world from spec and registers it under name.
// The engine build happens outside the registry lock (large armies take
// a while); on a name collision the loser's engine is discarded.
func (r *Registry) Create(name string, spec WorldSpec) (*World, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("server: invalid session name %q", name)
	}
	prog, err := compileWorldScript(spec.Script)
	if err != nil {
		return nil, fmt.Errorf("server: compile script: %w", err)
	}
	if spec.Units <= 0 {
		spec.Units = 1000
	}
	if spec.Density <= 0 {
		spec.Density = 0.01
	}
	// Bound the world spec like every other client input: an oversized
	// army is a multi-gigabyte allocation on the request path, and a
	// density beyond what the formations can place makes army generation
	// spin forever looking for a free square (BattleLines confines each
	// player to ~1/6 of the grid).
	if spec.Units > MaxWorldUnits {
		return nil, fmt.Errorf("server: units %d exceeds the limit %d", spec.Units, MaxWorldUnits)
	}
	if spec.Density > MaxWorldDensity {
		return nil, fmt.Errorf("server: density %g exceeds the limit %g (higher occupancies cannot be placed)", spec.Density, MaxWorldDensity)
	}
	// Refused before the army is generated, so an oversized request
	// answers at once (register checks every world again).
	if err := naiveBound(spec.Mode, spec.Units); err != nil {
		return nil, err
	}
	wspec := workload.Spec{Units: spec.Units, Density: spec.Density, Seed: spec.Seed, Formation: spec.Formation}
	opts := spec.Tune
	opts.Mode = spec.Mode
	opts.Categoricals = game.Categoricals()
	opts.Seed = spec.Seed
	opts.Side = wspec.Side()
	opts.MoveSpeed = 1
	eng, err := engine.New(prog, game.NewMechanics(), workload.Generate(wspec), opts)
	if err != nil {
		return nil, fmt.Errorf("server: build engine: %w", err)
	}
	// The world keeps the engine's canonical source (not the client's
	// raw text): it is what checkpoints embed, so Script() always equals
	// what a migration target will run.
	return r.register(name, engine.NewSession(eng), prog, eng.Source(), spec.TickRate, false)
}

// Restore builds a world from a checkpoint stream under restore-time
// tuning — the live-migration path: checkpoint a running world, restore
// it here (possibly with different Workers), and it
// continues byte-identically. The checkpoint is self-contained: it
// carries the script the world runs. tickRate follows the
// WorldSpec.TickRate convention (0 = paused).
func (r *Registry) Restore(name string, ck io.Reader, tune engine.Options, tickRate float64) (*World, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("server: invalid session name %q", name)
	}
	sess, err := engine.Open(ck, game.NewMechanics(), tune)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// The daemon hosts worlds over the battle schema and mechanics; a
	// self-contained checkpoint of some other schema would restore an
	// engine the battle post-processor cannot drive.
	prog := sess.Engine().Program()
	if !prog.Schema.Equal(game.Schema()) {
		return nil, fmt.Errorf("server: checkpoint schema %v is not the battle schema this daemon serves", prog.Schema)
	}
	w, err := r.register(name, sess, prog, sess.Engine().Source(), tickRate, false)
	if err == nil {
		r.Metrics.Counter("sgld_restores_total").Inc()
	}
	return w, err
}

// RegisterReplica publishes a follower world over an already-restored
// session (typically opened from the writer's checkpoint stream). The
// world serves queries, status, checkpoints and push subscriptions like
// any other, but refuses every client-side mutation (step, clock,
// commands, compaction): only the caller's replication loop advances it,
// through ReplicaAdvance. No clock ever starts on a replica — its
// cadence is the writer's.
func (r *Registry) RegisterReplica(name string, sess *engine.Session) (*World, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("server: invalid session name %q", name)
	}
	prog := sess.Engine().Program()
	if !prog.Schema.Equal(game.Schema()) {
		return nil, fmt.Errorf("server: checkpoint schema %v is not the battle schema this daemon serves", prog.Schema)
	}
	return r.register(name, sess, prog, sess.Engine().Source(), 0, true)
}

// register inserts a built world, failing on duplicate names. Counter
// attachment, publication, and the optional clock start all happen in
// one registry critical section: nothing can observe (or race) the
// world between becoming visible and reaching its requested state, so
// the clock start cannot fail and no rollback path exists.
// Every world passes naiveBound here, whichever way it arrived: created,
// restored from a checkpoint (PUT, a migration's target), or
// bootstrapped as a replica. A checkpoint carries its mode, so the bound
// cannot stop at the create path.
func (r *Registry) register(name string, sess *engine.Session, prog *sem.Program, script string, tickRate float64, replica bool) (*World, error) {
	if err := naiveBound(sess.Engine().Mode(), sess.Engine().Env().Len()); err != nil {
		return nil, err
	}
	w := &World{Name: name, sess: sess, prog: prog, created: time.Now(), subsDone: make(chan struct{}), tickCh: make(chan struct{}), replica: replica}
	// Lint the canonical source once, outside the registry lock. The
	// program compiled, so every finding is warn-severity; []
	// (not nil) keeps the create response's warnings field an array.
	w.warnings = lint.Lint(script, lint.Options{
		Mode:         lint.ModeScript,
		Schema:       prog.Schema,
		Consts:       prog.Consts,
		Categoricals: game.Categoricals(),
	})
	if w.warnings == nil {
		w.warnings = []lint.Diagnostic{}
	}
	r.mu.Lock()
	if _, dup := r.worlds[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("server: session %q: %w", name, ErrExists)
	}
	r.attachCounters(w)
	if replica {
		w.replicaLag = r.Metrics.Gauge("sgld_replica_lag_ticks", metrics.L("session", name))
		w.replicaLag.Set(0)
	}
	r.worlds[name] = w
	// Under the registry lock, so concurrent register/Delete cannot
	// publish the gauge updates out of order and leave it stale.
	r.Metrics.Gauge("sgld_worlds").Set(float64(len(r.worlds)))
	if tickRate != 0 {
		rate := tickRate
		if rate < 0 {
			rate = 0 // uncapped
		}
		// Cannot fail: the world is fresh (no clock, no step, not
		// deleted) and unreachable until we release r.mu.
		if err := w.StartClock(rate); err != nil {
			panic(fmt.Sprintf("server: clock start on fresh world %s: %v", name, err))
		}
	}
	r.mu.Unlock()
	r.Metrics.Counter("sgld_sessions_created_total").Inc()
	return w, nil
}

// Get looks a world up by name.
func (r *Registry) Get(name string) (*World, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.worlds[name]
	return w, ok
}

// Delete removes a world and stops its clock. Deleting an absent name
// reports false.
func (r *Registry) Delete(name string) bool {
	r.mu.Lock()
	w, ok := r.worlds[name]
	if ok {
		delete(r.worlds, name)
		r.Metrics.Gauge("sgld_worlds").Set(float64(len(r.worlds)))
		// Drop the dead session's labeled series in the same critical
		// section that removes the world: a daemon churning through
		// world names must not grow /metrics without bound, and a
		// concurrent same-name Create must neither inherit these series
		// nor lose its own to this deletion. (Prometheus handles
		// disappearing series; a recreated world starts its counters
		// from zero, which scrapers treat as a counter reset.)
		r.Metrics.DeleteSeries(metrics.L("session", name))
	}
	r.mu.Unlock()
	if !ok {
		return false
	}
	// Mark first, then stop: StartClock and this marking serialize on
	// w.mu, so either the racing StartClock ran first (its clock is
	// stopped below) or it runs after and refuses — no orphaned clock
	// goroutine either way. Outside the registry lock, because StopClock
	// waits for a tick in flight and a slow tick must not block
	// unrelated Create/Get calls.
	w.mu.Lock()
	w.deleted = true
	w.mu.Unlock()
	w.StopClock()
	// Release every streaming subscriber handler; new subscribe calls on
	// the unregistered world refuse from here on.
	w.closeSubscribers()
	r.Metrics.Counter("sgld_sessions_deleted_total").Inc()
	return true
}

// List returns the current worlds' statuses, sorted by name.
func (r *Registry) List() []Status {
	r.mu.Lock()
	worlds := make([]*World, 0, len(r.worlds))
	for _, w := range r.worlds {
		worlds = append(worlds, w)
	}
	r.mu.Unlock()
	sort.Slice(worlds, func(i, j int) bool { return worlds[i].Name < worlds[j].Name })
	out := make([]Status, len(worlds))
	for i, w := range worlds {
		out[i] = w.Status()
	}
	return out
}

// Close stops every world's clock (used at daemon shutdown).
func (r *Registry) Close() {
	r.mu.Lock()
	worlds := make([]*World, 0, len(r.worlds))
	for _, w := range r.worlds {
		worlds = append(worlds, w)
	}
	r.mu.Unlock()
	for _, w := range worlds {
		w.StopClock()
	}
}
