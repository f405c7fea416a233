// Session: the long-lived facade over an Engine for server-style use.
// An Engine alone is a batch object — one goroutine ticks it and reads
// Env() when done. A Session turns it into a world that can be advanced,
// observed by many concurrent readers, and checkpointed, with the
// synchronization those uses need built in:
//
//   - Step takes the writer lock, so the live environment never mutates
//     under anything that reads it;
//   - Query/QueryScan/Tick/ReadView take NO lock: they read the view
//     the last tick commit published (see query.go), so any number of
//     spectators run simultaneously with each other and with a Step in
//     progress, answering for the last committed tick;
//   - Checkpoint, Journal, Pending, Stats and View take the reader
//     lock: they read live mutable engine state (the input journal, the
//     run counters), so they run together but wait for — and hold off —
//     the clock;
//   - Submit takes NO session lock at all: it routes through the sharded
//     per-origin admission queues (admission.go), so N concurrent actors
//     never contend with each other, with spectators, or with the clock.
package engine

import (
	"fmt"
	"io"
	"sync"
)

// StatsFunc observes the engine after each completed tick of a
// Session.Step: the tick counter just reached and the cumulative run
// stats. It runs under the session's writer lock — keep it cheap, and do
// not call back into the session from it.
type StatsFunc func(tick int64, stats RunStats)

// Session wraps an Engine with the locking that makes concurrent
// observation safe. Create one with NewSession and route every
// interaction through it; the underlying engine must not be ticked
// directly while the session is in use.
type Session struct {
	mu sync.RWMutex
	e  *Engine
	fn StatsFunc
}

// NewSession wraps an engine.
func NewSession(e *Engine) *Session { return &Session{e: e} }

// OnTick installs the per-tick stats hook (nil uninstalls). Safe to call
// at any time, including while a Step runs on another goroutine; the
// hook takes effect from the next tick.
func (s *Session) OnTick(fn StatsFunc) {
	s.mu.Lock()
	s.fn = fn
	s.mu.Unlock()
}

// Engine returns the wrapped engine for read-only inspection (plans,
// stats). Ticking or mutating it directly bypasses the session's
// locking.
func (s *Session) Engine() *Engine { return s.e }

// Tick returns the number of committed ticks. It never blocks: while a
// Step is in progress it reports the tick before it, and once Step has
// returned it reports the stepped-to tick.
func (s *Session) Tick() int64 { return s.e.ReadView().Tick() }

// ReadView returns the read view of the last committed tick (see
// ReadView). Use it when several reads must describe the same tick — a
// query's values and the tick they are labelled with, or the counters of
// one status line — which separate Session calls cannot promise while
// the clock runs. It takes no lock.
func (s *Session) ReadView() *ReadView { return s.e.ReadView() }

// Stats returns a snapshot of the cumulative run counters.
func (s *Session) Stats() RunStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.e.Stats
	st.EffectsByWorker = append([]int(nil), st.EffectsByWorker...)
	return st
}

// Step advances the world n ticks, invoking the OnTick hook after each.
// The writer lock is acquired per tick, not for the whole call: locked
// readers (checkpoints and journal reads) always observe a
// completed tick, never a torn one, and long steps leave windows between
// ticks for them instead of starving them for the entire batch.
func (s *Session) Step(n int) error {
	if n < 0 {
		return fmt.Errorf("engine: session: negative step %d", n)
	}
	for i := 0; i < n; i++ {
		if err := s.stepOne(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Session) stepOne() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.e.Tick(); err != nil {
		return err
	}
	if s.fn != nil {
		// Same defensive copy as Stats(): a hook that retains its
		// argument must not watch EffectsByWorker mutate under it.
		st := s.e.Stats
		st.EffectsByWorker = append([]int(nil), st.EffectsByWorker...)
		s.fn(s.e.TickCount(), st)
	}
	return nil
}

// Query evaluates a world query against the last committed tick:
// ReadView().Query(q, World(), args...). Any number of Query/QueryScan
// calls may run concurrently, with each other and with Step: neither
// takes the session lock, and neither waits for a tick in progress (see
// ReadView). Other probes go through ReadView.
func (s *Session) Query(q *Query, args ...float64) ([]float64, error) {
	return s.e.ReadView().Query(q, World(), args...)
}

// QueryScan is the naive-scan twin of Query (see ReadView.QueryScan).
// Kept as public API: sgl.go and ARCHITECTURE name it.
func (s *Session) QueryScan(q *Query, args ...float64) ([]float64, error) {
	return s.e.ReadView().QueryScan(q, World(), args...)
}

// QueryMaintained is Query.
//
// Deprecated: use Query. Every answer, a push subscription's included,
// is a one-shot on the published read view. Kept only because bench/
// compiles against it.
func (s *Session) QueryMaintained(q *Query, args ...float64) ([]float64, error) {
	return s.Query(q, args...)
}

// View runs fn against the live engine under the reader lock: the clock
// is held off for the duration, so everything fn reads — the journal,
// the tick counter, stats, and (because the current read view is the
// live tick while the lock is held) plain queries — comes from one
// consistent between-ticks state. It exists for reads
// coupled to live mutable engine state; plain observation reads should
// use ReadView, which gives the same consistency without stalling the
// clock. fn must treat the engine as read-only and must not call a
// session method that takes the lock (it is not reentrant).
func (s *Session) View(fn func(e *Engine)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.e)
}

// Checkpoint writes the world's resumable state to w (see
// Engine.Checkpoint). It runs under the reader lock: the clock waits for
// the write (queries never wait for either). Queued sharded admissions
// are stamped and drained into the stream first, so every acknowledged
// Submit is in the checkpoint it should survive through.
func (s *Session) Checkpoint(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.Checkpoint(w)
}

// Submit validates and enqueues externally injected commands,
// all-or-nothing (see Engine.SubmitSharded). It takes no session lock:
// admission is sharded per origin, so any number of goroutines submit
// concurrently — with each other, with spectators, and with a running
// tick — contending only when two connections share one origin. The
// commands are stamped in canonical (tick, origin, sequence) order at
// the next drain (a tick's commit or a checkpoint), which makes the
// world — and the checkpoint bytes — independent of how the calls
// interleaved.
func (s *Session) Submit(origin string, cmds ...Command) error {
	_, err := s.SubmitTick(origin, cmds...)
	return err
}

// SubmitTick is Submit returning the tick of the read view published at
// admission: the accepted commands are stamped at least one past it, and
// the view labelled with their stamp is the first to show them. On error
// nothing was enqueued.
func (s *Session) SubmitTick(origin string, cmds ...Command) (int64, error) {
	return s.e.SubmitSharded(origin, cmds...)
}

// SubmitStamped enqueues one journal entry with its original (tick,
// origin, seq) stamp under the writer lock — the replay path a follower
// replica drives (see Engine.SubmitStamped): the entry must be stamped
// one past the session's tick, so a replayer submits the slice the next
// step's commit applies and then steps once. Unlike Submit, this serializes
// against the clock; replay is a single-writer activity by construction.
func (s *Session) SubmitStamped(sc StampedCommand) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.SubmitStamped(sc)
}

// Journal returns a copy of the run's input journal under the reader
// lock (see Engine.Journal). Kept as public API: ARCHITECTURE names it.
func (s *Session) Journal() []StampedCommand {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.Journal()
}

// Pending returns a copy of the commands waiting for the next tick
// boundary, under the reader lock.
func (s *Session) Pending() []StampedCommand {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.Pending()
}
