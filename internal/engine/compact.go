// Journal compaction: bound the interactive state a long-lived world
// drags through every checkpoint.
//
// The input journal is a complete history — that is what makes contract
// #5's replay-from-genesis possible — but a complete history grows
// without bound under sustained command traffic, and the checkpoint
// format embeds it, so a year-old world would write a year of inputs
// into every snapshot. Compaction trades the genesis replay for a
// bounded one: everything stamped at or before a base tick is folded
// into the engine's own state (it already is — an entry stamped s is
// applied at the commit that advances the world to tick s, so the
// environment rows, counters, and constant table of a world at tick s
// carry its full effect), the journal keeps only the tail stamped after
// the base tick, and the checkpoint records the base so a reader knows
// the stream is a (base snapshot + tail), not a genesis history.
//
// Replay degrades explicitly, never silently: asking for the journal
// entries a world before the base has yet to apply returns a typed
// *CompactedError naming the base tick, so a replayer knows to start
// from the base checkpoint instead of tick zero.
// TestReplayMatchesLiveCompacted proves the degraded form of contract
// #5: replaying the tail against the base checkpoint is byte-identical
// to the live run that never compacted a thing.
package engine

import "fmt"

// CompactedError reports that requested journal history was folded into
// the base checkpoint by compaction and is no longer replayable from
// this stream alone; replay must start from a checkpoint at (or after)
// BaseTick.
type CompactedError struct {
	// BaseTick is the journal's base: entries stamped at or before it
	// are gone.
	BaseTick int64
}

// Error describes the degraded replay window.
func (e *CompactedError) Error() string {
	return fmt.Sprintf("engine: journal compacted: entries stamped at or before base tick %d were folded into the base checkpoint", e.BaseTick)
}

// Compact folds every journal entry already applied — stamped at or
// before the current tick — into the base and drops it from the journal,
// leaving only the tail (entries stamped after the current tick, i.e.
// the pending window). The journal base becomes the current tick and is
// recorded in subsequent checkpoints. Compact must not run concurrently
// with Tick; the Session facade serializes it under the writer lock.
// It returns the new base tick.
func (e *Engine) Compact() int64 {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	return e.compactLocked()
}

func (e *Engine) compactLocked() int64 {
	if e.journalBase < e.tick {
		kept := e.journal[:0]
		for _, sc := range e.journal {
			if sc.Tick > e.tick {
				kept = append(kept, sc)
			}
		}
		// Zero the dropped tail so folded spawn rows do not linger
		// reachable through the backing array.
		for i := len(kept); i < len(e.journal); i++ {
			e.journal[i] = StampedCommand{}
		}
		e.journal = kept
		e.journalBase = e.tick
	}
	return e.journalBase
}

// JournalBase returns the tick the journal is compacted to: entries
// stamped at or before it were folded into the base checkpoint. Zero
// means the journal is complete from genesis.
func (e *Engine) JournalBase() int64 {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	return e.journalBase
}

// JournalSince returns a copy of the journal entries stamped after the
// given tick: the inputs a world at that tick has yet to apply. If from
// predates the journal base the history no longer exists in this stream
// and the call returns a *CompactedError naming the base tick — the
// caller must replay from a base checkpoint instead.
func (e *Engine) JournalSince(from int64) ([]StampedCommand, error) {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	if from < e.journalBase {
		return nil, &CompactedError{BaseTick: e.journalBase}
	}
	var out []StampedCommand
	for _, sc := range e.journal {
		if sc.Tick > from {
			out = append(out, sc)
		}
	}
	return out, nil
}

// Compact is Engine.Compact under the session's writer lock: the fold
// waits for the clock and for in-flight readers, then drops the applied
// journal prefix. Returns the new base tick.
func (s *Session) Compact() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Compact()
}

// JournalSince returns the journal tail stamped after the given tick,
// under the reader lock (see Engine.JournalSince). Kept as public API:
// ARCHITECTURE names it.
func (s *Session) JournalSince(from int64) ([]StampedCommand, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.JournalSince(from)
}
