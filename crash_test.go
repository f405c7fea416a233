package sgl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/epicscale/sgl/internal/table"
)

// TestCompactCheckpointCrashWindow proves the crash-safety claim for
// compaction: replacing an on-disk checkpoint with a compacted one is
// a window in which the process may die at ANY byte of the new write,
// and an operator who reopens the file must land on either the old
// complete state or the new complete state — never a torn hybrid.
//
// The test snapshots a session at tick 3 (uncompacted, full journal),
// advances to tick 6 and compacts, then attempts the re-checkpoint
// through the package's own staged-temp-then-rename discipline with an
// injected fault at a sweep of byte offsets. After every failed
// attempt the published path must still open as the tick-3 world; only
// a fault-free attempt may advance it to the compacted tick-6 world.
func TestCompactCheckpointCrashWindow(t *testing.T) {
	prog, err := CompileBattle()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewBattleEngineOpts(prog, ArmySpec{Units: 64, Density: 0.01, Seed: 21}, EngineOptions{Mode: Indexed, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(eng)
	mech := NewBattleMechanics()

	step := func(ticks int) {
		t.Helper()
		for i := 0; i < ticks; i++ {
			if err := sess.Submit("player", Command{Op: OpSet, Key: int64(i % 64), Col: "morale", Val: float64(i)}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Step(1); err != nil {
				t.Fatal(err)
			}
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "world.ckpt")

	step(3)
	if err := table.WriteFileAtomic(path, func(f *os.File) error { return sess.Checkpoint(f) }); err != nil {
		t.Fatal(err)
	}
	oldBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	step(3)
	if base := sess.Compact(); base != 6 {
		t.Fatalf("Compact returned base %d, want 6", base)
	}
	var newCkpt bytes.Buffer
	if err := sess.Checkpoint(&newCkpt); err != nil {
		t.Fatal(err)
	}
	newSize := newCkpt.Len()

	// Sweep the crash window: fault the write at the first byte, inside
	// the header, mid-stream, and one byte short of complete.
	for _, limit := range []int{0, 4, 9, newSize / 3, newSize / 2, newSize - 8, newSize - 1} {
		tmp, err := table.WriteTemp(dir, "world.ckpt.tmp-*", func(f *os.File) error {
			return sess.Checkpoint(&table.FaultWriter{W: f, Limit: limit})
		})
		if !errors.Is(err, table.ErrInjectedFault) {
			t.Fatalf("limit %d: WriteTemp error = %v, want ErrInjectedFault", limit, err)
		}
		if tmp != "" {
			if _, statErr := os.Stat(tmp); statErr == nil {
				t.Fatalf("limit %d: failed staging left temp file %s behind", limit, tmp)
			}
		}

		// The published checkpoint is untouched by the failed attempt...
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oldBytes) {
			t.Fatalf("limit %d: published checkpoint bytes changed under a failed write", limit)
		}
		// ...and still opens as the complete old state.
		old, err := Open(bytes.NewReader(got), mech, EngineOptions{})
		if err != nil {
			t.Fatalf("limit %d: reopening old checkpoint: %v", limit, err)
		}
		if tick := old.Tick(); tick != 3 {
			t.Fatalf("limit %d: old checkpoint opened at tick %d, want 3", limit, tick)
		}
		if base := old.Engine().JournalBase(); base != 0 {
			t.Fatalf("limit %d: old checkpoint opened with base %d, want 0", limit, base)
		}
		if n := len(old.Journal()); n != 3 {
			t.Fatalf("limit %d: old checkpoint journal has %d entries, want 3", limit, n)
		}
	}

	// The live session is unharmed by the failed attempts: a fault-free
	// write publishes the new compacted state.
	if err := table.WriteFileAtomic(path, func(f *os.File) error { return sess.Checkpoint(f) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Open(bytes.NewReader(data), mech, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tick := cur.Tick(); tick != 6 {
		t.Fatalf("new checkpoint opened at tick %d, want 6", tick)
	}
	if base := cur.Engine().JournalBase(); base != 6 {
		t.Fatalf("new checkpoint opened with base %d, want 6", base)
	}
	if _, err := cur.JournalSince(0); err == nil {
		t.Fatal("genesis replay from the compacted checkpoint should degrade with an error")
	}
	// Both survivors keep simulating.
	for _, s := range []*Session{cur, sess} {
		if err := s.Step(2); err != nil {
			t.Fatal(err)
		}
	}
}
