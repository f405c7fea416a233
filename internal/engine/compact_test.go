package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
)

// Compact folds the applied journal prefix: the base advances to the
// current tick, folded history becomes unreachable through a typed
// *CompactedError, the tail (and anything pending) survives, and the
// base round-trips through the checkpoint.
func TestCompactSemantics(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 64, Indexed, 7, nil)
	for tick := int64(0); tick < 12; tick++ {
		injectScripted(t, e, tick)
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	full := e.Journal()
	if len(full) == 0 {
		t.Fatal("scenario journaled nothing")
	}
	// One command pending at the compaction boundary: stamped for the
	// next tick, it must survive the fold.
	if _, err := e.SubmitSharded("late", Command{Op: OpSet, Key: 1, Col: "morale", Val: 5}); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := e.Checkpoint(&before); err != nil { // drains + stamps the pending command
		t.Fatal(err)
	}

	if base := e.Compact(); base != 12 {
		t.Fatalf("Compact returned base %d, want 12", base)
	}
	if got := e.JournalBase(); got != 12 {
		t.Fatalf("JournalBase = %d, want 12", got)
	}
	tail := e.Journal()
	if len(tail) != 1 || tail[0].Origin != "late" || tail[0].Tick != 13 {
		t.Fatalf("post-compact journal = %+v, want only the pending tick-13 command", tail)
	}

	if since, err := e.JournalSince(12); err != nil || len(since) != 1 {
		t.Fatalf("JournalSince(base) = %+v, %v; want the pending command", since, err)
	}
	_, err := e.JournalSince(3)
	var ce *CompactedError
	if !errors.As(err, &ce) {
		t.Fatalf("JournalSince(3) = %v, want *CompactedError", err)
	}
	if ce.BaseTick != 12 {
		t.Fatalf("CompactedError.BaseTick = %d, want 12", ce.BaseTick)
	}

	// The base survives checkpoint → restore, and restore → checkpoint
	// stays a byte fixed point with the base carried.
	var ckpt bytes.Buffer
	if err := e.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(before.Bytes(), ckpt.Bytes()) {
		t.Fatal("compaction did not change the checkpoint bytes")
	}
	sess, err := Open(bytes.NewReader(ckpt.Bytes()), game.NewMechanics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	re := sess.Engine()
	if got := re.JournalBase(); got != 12 {
		t.Fatalf("restored JournalBase = %d, want 12", got)
	}
	var again bytes.Buffer
	if err := re.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Bytes(), again.Bytes()) {
		t.Fatal("restore → checkpoint is not a fixed point for a compacted stream")
	}
}

// Options.CompactJournal keeps checkpoint size flat under sustained
// command traffic — the acceptance bound is ≥ 10⁴ commands per tick —
// while the uncompacted twin's checkpoint grows with every tick of
// input history.
func TestCompactJournalBoundedCheckpoint(t *testing.T) {
	prog := battleProg(t)
	const perTick = 10_000
	run := func(compact bool) (sizeEarly, sizeLate int) {
		e := newEngine(t, prog, 64, Indexed, 13, func(o *Options) {
			o.CompactJournal = compact
		})
		sess := NewSession(e)
		batch := make([]Command, 500)
		size := func() int {
			var buf bytes.Buffer
			if err := sess.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Len()
		}
		for tick := 0; tick < 6; tick++ {
			for b := 0; b < perTick/len(batch); b++ {
				for i := range batch {
					batch[i] = Command{Op: OpSet, Key: int64((b*len(batch) + i) % 64), Col: "morale", Val: float64(tick + b)}
				}
				if err := sess.Submit(fmt.Sprintf("actor-%d", b%8), batch...); err != nil {
					t.Fatalf("tick %d batch %d: %v", tick, b, err)
				}
			}
			if err := sess.Step(1); err != nil {
				t.Fatal(err)
			}
			if tick == 2 {
				sizeEarly = size()
			}
		}
		sizeLate = size()
		return
	}
	early, late := run(true)
	if late != early {
		t.Fatalf("compacted checkpoint grew under command traffic: %d bytes at tick 3, %d at tick 6", early, late)
	}
	uEarly, uLate := run(false)
	if uLate <= uEarly {
		t.Fatalf("uncompacted control did not grow (%d → %d); the bounded-size assertion proves nothing", uEarly, uLate)
	}
	if late >= uLate {
		t.Fatalf("compacted checkpoint (%d bytes) not smaller than uncompacted (%d bytes)", late, uLate)
	}
}

// TestReplayMatchesLiveCompacted extends exactness contract #5 to the
// compacted form: a run that compacts mid-stream is replayable from the
// base checkpoint plus the journal tail — SubmitStamped per entry,
// bypassing the sharded admission queues — and the replay's final
// checkpoint is byte-identical to the live run's, for every zoo program
// and the battle simulation at Workers {1,4}. The live run admits
// mid-tick traffic too (admitMidTick).
func TestReplayMatchesLiveCompacted(t *testing.T) {
	const baseTick = 6
	mk := func(progName, src string, battle bool) {
		t.Run(progName, func(t *testing.T) {
			prog := battleProg(t)
			if !battle {
				prog = compileZoo(t, src)
			}
			for _, w := range restoreWorkers {
				tune := Options{Workers: w, threshold: 1}
				live := newEngine(t, prog, 64, Indexed, 7, func(o *Options) {
					o.Workers = w
					o.threshold = 1
					o.midTick = admitMidTick(t)
				})
				for tick := int64(0); tick < baseTick; tick++ {
					injectScripted(t, live, tick)
					if err := live.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				live.Compact()
				var baseCkpt bytes.Buffer
				if err := live.Checkpoint(&baseCkpt); err != nil {
					t.Fatal(err)
				}
				for tick := int64(baseTick); tick < scriptedTicks; tick++ {
					injectScripted(t, live, tick)
					if err := live.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				var liveBytes bytes.Buffer
				if err := live.Checkpoint(&liveBytes); err != nil {
					t.Fatal(err)
				}

				// Genesis replay must degrade explicitly, not silently.
				var ce *CompactedError
				if _, err := live.JournalSince(0); !errors.As(err, &ce) || ce.BaseTick != baseTick {
					t.Fatalf("JournalSince(0) after compaction = %v, want *CompactedError{BaseTick: %d}", err, baseTick)
				}

				// Replay: base checkpoint + journal tail.
				re := reopen(t, baseCkpt.Bytes(), tune)
				tail, err := live.JournalSince(baseTick)
				if err != nil {
					t.Fatal(err)
				}
				byTick := map[int64][]StampedCommand{}
				for _, sc := range tail {
					byTick[sc.Tick] = append(byTick[sc.Tick], sc)
				}
				// The base checkpoint already carries any entries that were
				// pending at the base tick; replay only what came after.
				// Before each Tick, the batch its commit applies.
				carried := len(re.Pending())
				for tick := int64(baseTick); tick < scriptedTicks; tick++ {
					entries := byTick[tick+1]
					if tick == baseTick {
						entries = entries[carried:] // skip what the checkpoint carried
					}
					for _, sc := range entries {
						if err := re.SubmitStamped(sc); err != nil {
							t.Fatalf("replay tick %d: %v", tick, err)
						}
					}
					if err := re.Tick(); err != nil {
						t.Fatal(err)
					}
				}
				var replayBytes bytes.Buffer
				if err := re.Checkpoint(&replayBytes); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(liveBytes.Bytes(), replayBytes.Bytes()) {
					t.Fatalf("w=%d: replay from the base checkpoint diverged from the live compacted run", w)
				}
			}
		})
	}
	for _, zp := range exec.Zoo {
		mk(zp.Name, zp.Src, false)
	}
	mk("battle-sim", "", true)
}

// A stream whose base field contradicts itself — base beyond the tick,
// or journal entries stamped before the base — is rejected at decode,
// even with a valid checksum.
func TestRestoreRejectsInconsistentBase(t *testing.T) {
	prog := battleProg(t)
	mkBytes := func(poison func(e *Engine)) []byte {
		e := newEngine(t, prog, 48, Indexed, 3, nil)
		for tick := int64(0); tick < 4; tick++ {
			injectScripted(t, e, 2) // journal entries stamped 1..4
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		poison(e)
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	t.Run("base-beyond-tick", func(t *testing.T) {
		b := mkBytes(func(e *Engine) { e.journalBase = e.tick + 5 })
		if _, err := Open(bytes.NewReader(b), game.NewMechanics(), Options{}); err == nil {
			t.Fatal("stream with base > tick accepted")
		}
	})
	t.Run("entry-before-base", func(t *testing.T) {
		b := mkBytes(func(e *Engine) { e.journalBase = 2 }) // journal still holds tick-0/1 entries
		if _, err := Open(bytes.NewReader(b), game.NewMechanics(), Options{}); err == nil {
			t.Fatal("stream with journal entries before the base accepted")
		}
	})
}
