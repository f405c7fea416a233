// Sharded command admission: the front half of the command pipeline
// (see command.go for the pipeline itself), and the one way a live
// command enters an engine.
//
// Admission takes no writer lock, so N concurrent actors do not contend
// on one mutex with the clock. The observation that allows this is
// the same one that makes contract #5 hold at all: the world depends
// only on the canonical (tick, origin, sequence) order of the accepted
// commands, never on their arrival interleaving. Admission therefore
// does not need to agree on a global order at submit time; it only needs
// to preserve each origin's own order. That is a per-origin problem, so
// admission shards per origin:
//
//	actor A ──▶ queue[A] ─┐
//	actor B ──▶ queue[B] ─┼─ drain (tick commit/checkpoint):
//	actor C ──▶ queue[C] ─┘  stamp tick+1 in sorted-origin order
//	                         → pending+journal → applied at that commit
//
//	- SubmitSharded validates against immutable engine state only (the
//	  schema, the world geometry, the constant-name set — all fixed at
//	  construction), reserves buffer space with one atomic CAS, and
//	  appends to its origin's queue under that queue's own mutex. Two
//	  actors on different origins share no lock at all; two connections
//	  racing the same origin serialize only with each other.
//	- The queues are drained at the next tick's commit, after its
//	  decision, movement and resurrection and before its delta capture
//	  (and before a checkpoint is serialized, so an acknowledged command
//	  is always in the stream it should survive through). The drain
//	  stamps commands with (stampTick, origin, next per-origin
//	  sequence), walking the origins in sorted order so the stamped batch
//	  arrives in canonical order and the insertion into the pending
//	  buffer and journal stays O(1) per command. A tick's drain is
//	  applied at once, so a command that arrives while a tick runs is in
//	  the view that tick publishes.
//
// Stamping happens at the drain, not at submission: a queued command has
// no sequence number yet, so the assignment order — and with it every
// downstream byte — is a pure function of WHAT each origin submitted
// before the boundary, which is exactly the determinism argument
// TestSubmitArrivalOrderTorture hammers on. The replay path
// (SubmitStamped) carries its own historical stamps and therefore
// bypasses the sharded queues entirely. Every stamp, a drain's or a
// replayed one, follows one rule: stampTick.
package engine

import (
	"fmt"
	"sort"
	"sync"
)

// originQueue buffers one origin's submitted-but-not-yet-stamped
// commands. Its mutex serializes only that origin's submitters against
// each other and against the drain.
type originQueue struct {
	mu   sync.Mutex
	cmds []Command
}

// admission is the sharded front buffer: one queue per origin. The map
// grows with the distinct origins seen, like the per-origin sequence
// counters do; queues are never removed, so a *originQueue pointer once
// handed out stays the live queue for its origin.
type admission struct {
	mu     sync.RWMutex
	queues map[string]*originQueue
	// origins is the drain's scratch for the sorted origin list; only
	// the drain, under inmu, touches it.
	origins []string
}

// queue returns the origin's queue, creating it on first use.
func (a *admission) queue(origin string) *originQueue {
	a.mu.RLock()
	q := a.queues[origin]
	a.mu.RUnlock()
	if q != nil {
		return q
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if q = a.queues[origin]; q == nil {
		if a.queues == nil {
			a.queues = map[string]*originQueue{}
		}
		q = &originQueue{}
		a.queues[origin] = q
	}
	return q
}

// SubmitSharded validates cmds and enqueues them on the origin's
// admission queue, all-or-nothing, returning the tick of the read view
// published at admission: the commands are stamped one past it or
// later, and the view labelled with their stamp is the first to show
// them. It is safe to call from any number of goroutines
// concurrently — with itself on any origins, and with a running Tick or
// Checkpoint: it touches only immutable engine state,
// the published read view's tick, the atomic buffer reservation, and the
// origin's own queue. The queued commands are stamped and enter the
// pending buffer and journal at the next drain (a tick's commit or a
// checkpoint), each origin's in queue order, origins in canonical sorted
// order.
//
// Validation here covers everything knowable without the live world:
// schema shape, world geometry, finiteness, known columns and constants.
// Rules that depend on the world at application time — key existence and
// uniqueness, square occupancy — are checked when the command applies,
// and a violation then rejects the command deterministically (counted in
// RunStats.CommandsRejected) rather than failing the tick.
func (e *Engine) SubmitSharded(origin string, cmds ...Command) (int64, error) {
	tick := e.view.Load().tick
	if len(origin) > MaxOriginLen {
		return tick, fmt.Errorf("engine: origin longer than %d bytes", MaxOriginLen)
	}
	for i := range cmds {
		if err := e.validateCommand(&cmds[i]); err != nil {
			return tick, fmt.Errorf("engine: command %d: %w", i, err)
		}
	}
	if err := e.reserve(len(cmds)); err != nil {
		return tick, err
	}
	// Decouple spawn rows from the caller before publishing them to the
	// drain.
	for i := range cmds {
		if cmds[i].Row != nil {
			cmds[i].Row = append([]float64(nil), cmds[i].Row...)
		}
	}
	q := e.adm.queue(origin)
	q.mu.Lock()
	q.cmds = append(q.cmds, cmds...)
	q.mu.Unlock()
	return tick, nil
}

// reserve claims n slots of the shared input budget (queued + pending ≤
// MaxPendingCommands) with a CAS loop, so concurrent submitters cannot
// jointly overshoot the bound the checkpoint decoder enforces.
func (e *Engine) reserve(n int) error {
	for {
		cur := e.inflight.Load()
		if cur+int64(n) > MaxPendingCommands {
			return fmt.Errorf("engine: input buffer full (%d pending, limit %d)", cur, MaxPendingCommands)
		}
		if e.inflight.CompareAndSwap(cur, cur+int64(n)) {
			return nil
		}
	}
}

// stampTick is the tick every command admitted now is stamped with at
// the drain, and the one SubmitStamped accepts: the tick
// after the last committed one. A command stamped s precedes decision s;
// the Tick that advances the world to s applies it at its commit, so
// view s is the first to show it.
func (e *Engine) stampTick() int64 { return e.tick + 1 }

// drainAdmission moves every queued command into the pending buffer and
// journal with its canonical (stampTick, origin, sequence) stamp. Called
// at a tick's commit and before Checkpoint serializes, under inmu; the
// sorted-origin walk makes the stamped batch independent of arrival
// interleaving and keeps the canonical insertions O(1) per command.
func (e *Engine) drainAdmission() {
	e.adm.mu.RLock()
	origins := e.adm.origins[:0]
	//sgl:unordered origins are collected and sorted before stamping
	for o := range e.adm.queues {
		origins = append(origins, o)
	}
	e.adm.mu.RUnlock()
	sort.Strings(origins)
	e.adm.origins = origins
	for _, origin := range origins {
		q := e.adm.queue(origin)
		q.mu.Lock()
		cmds := q.cmds
		q.cmds = nil
		q.mu.Unlock()
		if len(cmds) == 0 {
			continue
		}
		if e.seqs == nil {
			e.seqs = map[string]uint64{}
		}
		for _, c := range cmds {
			sc := StampedCommand{Tick: e.stampTick(), Origin: origin, Seq: e.seqs[origin], Cmd: c}
			e.seqs[origin]++
			e.pending = insertCanonical(e.pending, sc)
			e.journal = insertCanonical(e.journal, sc)
		}
	}
}
