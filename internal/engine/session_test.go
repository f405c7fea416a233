package engine

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/epicscale/sgl/internal/game"
)

func newSession(t testing.TB, units int, seed uint64) *Session {
	t.Helper()
	return NewSession(newEngine(t, battleProg(t), units, Indexed, seed, nil))
}

// Step fires the per-tick hook once per tick with monotonically
// advancing counters.
func TestSessionStepAndHook(t *testing.T) {
	s := newSession(t, 60, 5)
	var ticks []int64
	s.OnTick(func(tick int64, stats RunStats) {
		ticks = append(ticks, tick)
		if stats.Ticks != int(tick) {
			t.Errorf("hook at tick %d saw stats.Ticks %d", tick, stats.Ticks)
		}
	})
	if err := s.Step(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 7 {
		t.Fatalf("hook fired %d times, want 7", len(ticks))
	}
	for i, tk := range ticks {
		if tk != int64(i+1) {
			t.Fatalf("hook ticks = %v", ticks)
		}
	}
	if s.Tick() != 7 {
		t.Fatalf("Tick() = %d", s.Tick())
	}
	if s.Stats().Ticks != 7 {
		t.Fatalf("Stats().Ticks = %d", s.Stats().Ticks)
	}
	if err := s.Step(-1); err == nil {
		t.Fatal("negative step accepted")
	}
}

// Concurrent spectators are safe against a running clock: readers hammer
// queries — each on the read view the last commit published — while the
// main goroutine steps. Run under -race this is the core safety proof
// for the session API.
func TestSessionConcurrentQueryAndStep(t *testing.T) {
	s := newSession(t, 90, 13)
	q := compileQuery(t, `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`)
	knn := compileQuery(t, `aggregate C(u) := nearestkey() as k, nearestdist() as d over e;`)

	var stop atomic.Bool
	var served atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.Query(q, 12, 12, 10); err != nil {
					errCh <- err
					return
				}
				if _, err := s.ReadView().Query(knn, At(float64(g), 7)); err != nil {
					errCh <- err
					return
				}
				if _, err := s.ReadView().Query(q, Unit(int64(g)), 12, 12, 10); err != nil {
					errCh <- err
					return
				}
				served.Add(3)
			}
		}(g)
	}
	// Keep the clock running until every reader demonstrably overlapped
	// with it (single-core schedulers may not run the readers at all for
	// the first few steps).
	for i := 0; i < 500 && (i < 10 || served.Load() < 24); i++ {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no queries served")
	}
}

// The naive-scan twin reads the same published view, so they too are
// safe against a running clock (regression: the server once scanned the
// live environment while it ticked), and it agrees with the indexed
// path between steps.
func TestSessionQueryScanLockedAndAgrees(t *testing.T) {
	s := newSession(t, 80, 17)
	q := compileQuery(t, `
aggregate Zone(u, x, y, r) :=
  count(*) as n
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`)
	pos := compileQuery(t, `
aggregate Near(u, r) :=
  count(*)
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := s.QueryScan(q, 10, 10, 8); err != nil {
				errCh <- err
				return
			}
			if _, err := s.ReadView().QueryScan(pos, At(5, 5), 8); err != nil {
				errCh <- err
				return
			}
			if _, err := s.ReadView().QueryScan(pos, Unit(3), 8); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for i := 0; i < 30; i++ {
		if err := s.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	idx, err := s.Query(q, 10, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := s.QueryScan(q, 10, 10, 8)
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != scan[0] {
		t.Errorf("indexed %v != scan %v", idx, scan)
	}
	iu, err := s.ReadView().Query(pos, Unit(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	su, err := s.ReadView().QueryScan(pos, Unit(3), 8)
	if err != nil {
		t.Fatal(err)
	}
	if iu[0] != su[0] {
		t.Errorf("unit indexed %v != scan %v", iu, su)
	}
}

// View runs its function under the reader lock against one consistent
// snapshot: tick and query results read inside one View must agree even
// with a concurrent stepper.
func TestSessionView(t *testing.T) {
	s := newSession(t, 60, 21)
	q := compileQuery(t, `aggregate Pop(u) := count(*) over e;`)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := s.Step(1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var t1, t2 int64
		var pop []float64
		s.View(func(e *Engine) {
			t1 = e.TickCount()
			pop, _ = e.ReadView().Query(q, World())
			t2 = e.TickCount()
		})
		if t1 != t2 {
			t.Fatalf("tick moved inside View: %d → %d", t1, t2)
		}
		if len(pop) != 1 || pop[0] != 60 {
			t.Fatalf("population inside View = %v", pop)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// A session checkpointed mid-run and restored into a new session
// continues byte-identically, and checkpointing does not perturb the
// run.
func TestSessionCheckpointRestore(t *testing.T) {
	oracle := newSession(t, 80, 11)
	if err := oracle.Step(16); err != nil {
		t.Fatal(err)
	}

	s := newSession(t, 80, 11)
	if err := s.Step(6); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(&buf, game.NewMechanics(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Step(10); err != nil {
		t.Fatal(err)
	}
	if !identicalTables(oracle.Engine().Env(), restored.Engine().Env()) {
		t.Fatal("restored session diverged from uninterrupted session")
	}
	// The original session keeps running unaffected by the checkpoint.
	if err := s.Step(10); err != nil {
		t.Fatal(err)
	}
	if !identicalTables(oracle.Engine().Env(), s.Engine().Env()) {
		t.Fatal("checkpointing perturbed the running session")
	}
}

// SubmitStamped drives the follower-replica replay path through the
// session facade: replaying a live session's journal tick by tick via
// Session.SubmitStamped + Step produces byte-identical checkpoints. The
// wrapper takes the writer lock, so the replay can interleave with
// concurrent spectator queries without tripping the race detector.
func TestSessionSubmitStampedReplay(t *testing.T) {
	const units, seed, ticks = 64, 9, 8
	live := newSession(t, units, seed)
	for tick := int64(0); tick < ticks; tick++ {
		if tick == 2 {
			if err := live.Submit("alice", Command{Op: OpSet, Key: 5, Col: "morale", Val: 4}); err != nil {
				t.Fatal(err)
			}
			if err := live.Submit("bob", Command{Op: OpSet, Key: 6, Col: "health", Val: 11}); err != nil {
				t.Fatal(err)
			}
		}
		if err := live.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	var liveBytes bytes.Buffer
	if err := live.Checkpoint(&liveBytes); err != nil {
		t.Fatal(err)
	}

	replay := newSession(t, units, seed)
	journal := live.Journal()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // spectator racing the replay: SubmitStamped must lock
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				replay.Stats()
				replay.Tick()
			}
		}
	}()
	for tick := int64(0); tick < ticks; tick++ {
		for _, sc := range journal {
			if sc.Tick == tick+1 { // the batch this step's commit applies
				if err := replay.SubmitStamped(sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := replay.Step(1); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	var replayBytes bytes.Buffer
	if err := replay.Checkpoint(&replayBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveBytes.Bytes(), replayBytes.Bytes()) {
		t.Fatal("session-level stamped replay diverged from the live session")
	}
	// A stamp for the wrong tick is refused, not silently misapplied.
	if err := replay.SubmitStamped(StampedCommand{Tick: 0, Origin: "late", Cmd: Command{Op: OpSet, Key: 1, Col: "morale", Val: 1}}); err == nil {
		t.Fatal("stale-stamped command accepted")
	}
}

// TestSessionCompactAndJournalSince drives compaction through the
// session facade: the fold advances the base to the session's tick, the
// tail after it stays readable, and a window reaching into folded
// history is refused with an error naming the base.
func TestSessionCompactAndJournalSince(t *testing.T) {
	s := NewSession(newEngine(t, battleProg(t), 64, Indexed, 7, nil))
	if err := s.Submit("op", Command{Op: OpSet, Key: 1, Col: "morale", Val: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit("op", Command{Op: OpSet, Key: 2, Col: "morale", Val: 6}); err != nil {
		t.Fatal(err)
	}
	if got, err := s.JournalSince(0); err != nil || len(got) != 1 {
		t.Fatalf("JournalSince(0) before compaction = %+v, %v; want the applied command", got, err)
	}
	if base := s.Compact(); base != 3 {
		t.Fatalf("Compact returned base %d, want 3", base)
	}
	if got, err := s.JournalSince(3); err != nil || len(got) != 0 {
		t.Fatalf("JournalSince(3) = %+v, %v; want an empty tail", got, err)
	}
	_, err := s.JournalSince(0)
	var ce *CompactedError
	if !errors.As(err, &ce) || ce.BaseTick != 3 {
		t.Fatalf("JournalSince(0) after compaction = %v, want *CompactedError at base 3", err)
	}
	if !strings.Contains(err.Error(), "base tick 3") {
		t.Errorf("error %q does not name the base tick", err)
	}
	if err := s.Step(1); err != nil {
		t.Fatal(err)
	}
	if got, err := s.JournalSince(3); err != nil || len(got) != 1 || got[0].Cmd.Key != 2 {
		t.Fatalf("JournalSince(3) after a step = %+v, %v; want the second command", got, err)
	}
}
