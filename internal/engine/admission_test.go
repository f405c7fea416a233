package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
)

// tortureRounds is how many tick boundaries the arrival-order torture
// spans; tortureOrigins is how many concurrent actors race each one.
const (
	tortureRounds  = 6
	tortureOrigins = 5
	tortureUnits   = 48
)

// tortureBurst is the logical command set origin k submits in round r —
// a pure function of (r, k), so the single-threaded reference and every
// randomized interleaving submit exactly the same commands. The mix
// covers every op: row edits (the common case), population changes
// (spawn/despawn, which invalidate the maintenance baseline), constant
// tunes, and commands whose apply-time rules must reject them.
func tortureBurst(r, k int) []Command {
	cmds := []Command{
		{Op: OpSet, Key: int64((7*r + 11*k) % tortureUnits), Col: "morale", Val: float64(r + k + 1)},
		{Op: OpSet, Key: int64((3*r + 5*k) % tortureUnits), Col: "health", Val: float64(10 + r)},
	}
	if (r+k)%3 == 0 {
		key := int64(9000 + r*tortureOrigins + k)
		cmds = append(cmds, Command{Op: OpSpawn,
			Row: game.NewUnit(key, k%2, game.Archer, geom.Point{X: float64(55 + r), Y: float64(40 + 2*k)})})
	}
	if (r+k)%4 == 1 {
		// Usually despawns a live unit; occasionally a key another
		// origin's earlier round already removed — a deterministic
		// apply-time rejection either way.
		cmds = append(cmds, Command{Op: OpDespawn, Key: int64((13*r + k) % tortureUnits)})
	}
	if r%3 == 2 && k == 0 {
		cmds = append(cmds, Command{Op: OpTune, Col: "_HEAL_AURA", Val: float64(2 + r)})
	}
	return cmds
}

// TestSubmitArrivalOrderTorture is the arrival-order property test for
// the sharded admission path: the same logical command set, submitted
// through K concurrent goroutines under seeded-random interleavings,
// sleeps and per-origin burst splits, must produce checkpoint bytes
// identical to one goroutine submitting the same bursts, origins in
// canonical order — for every zoo program and the battle simulation,
// at Workers {1,4}. The checkpoint covers the
// environment, every counter, the journal, the per-origin sequence
// numbers and the pending buffer, so byte equality is the whole
// "arrival order cannot reach the world" claim at once. Run under -race
// in CI, where the spectator goroutine hammering the read accessors
// during the submission storm makes the locking discipline part of the
// property.
func TestSubmitArrivalOrderTorture(t *testing.T) {
	mk := func(progName, src string, battle bool) {
		t.Run(progName, func(t *testing.T) {
			prog := battleProg(t)
			if !battle {
				prog = compileZoo(t, src)
			}
			for _, w := range restoreWorkers {
				tweak := func(o *Options) {
					o.Workers = w
					o.threshold = 1 // always maintain: the hostile setting
				}

				// Reference: one goroutine, origins in canonical order.
				ref := newEngine(t, prog, tortureUnits, Indexed, 9, tweak)
				for r := 0; r < tortureRounds; r++ {
					for k := 0; k < tortureOrigins; k++ {
						if _, err := ref.SubmitSharded(fmt.Sprintf("actor-%d", k), tortureBurst(r, k)...); err != nil {
							t.Fatalf("reference round %d actor %d: %v", r, k, err)
						}
					}
					if err := ref.Tick(); err != nil {
						t.Fatal(err)
					}
				}

				// Torture: same commands, one goroutine per origin,
				// seeded-random sub-burst splits and sleeps, a spectator
				// reading journal/pending/stats throughout. Submitters are
				// joined before each tick so WHAT was admitted per boundary
				// is deterministic; HOW it interleaved is not.
				tor := newEngine(t, prog, tortureUnits, Indexed, 9, tweak)
				sess := NewSession(tor)
				stop := make(chan struct{})
				var spect sync.WaitGroup
				spect.Add(1)
				go func() {
					defer spect.Done()
					for {
						select {
						case <-stop:
							return
						default:
							_ = sess.Journal()
							_ = sess.Pending()
							_ = sess.Engine().JournalBase()
							_ = sess.Stats()
							runtime.Gosched()
						}
					}
				}()
				seed := int64(9000 + w*10)
				for r := 0; r < tortureRounds; r++ {
					var wg sync.WaitGroup
					for k := 0; k < tortureOrigins; k++ {
						wg.Add(1)
						go func(r, k int) {
							defer wg.Done()
							rnd := rand.New(rand.NewSource(seed + int64(r*100+k)))
							burst := tortureBurst(r, k)
							origin := fmt.Sprintf("actor-%d", k)
							for len(burst) > 0 {
								n := 1 + rnd.Intn(len(burst))
								if rnd.Intn(2) == 0 {
									time.Sleep(time.Duration(rnd.Intn(40)) * time.Microsecond)
								} else {
									runtime.Gosched()
								}
								if err := sess.Submit(origin, burst[:n]...); err != nil {
									t.Errorf("torture round %d actor %d: %v", r, k, err)
									return
								}
								burst = burst[n:]
							}
						}(r, k)
					}
					wg.Wait()
					if err := sess.Step(1); err != nil {
						t.Fatal(err)
					}
				}
				close(stop)
				spect.Wait()
				if t.Failed() {
					t.FailNow()
				}

				// One command left unstamped in each engine's queues: the
				// pre-checkpoint drain must stamp both alike.
				late := Command{Op: OpSet, Key: 1, Col: "morale", Val: 42}
				if _, err := ref.SubmitSharded("late", late); err != nil {
					t.Fatal(err)
				}
				if err := sess.Submit("late", late); err != nil {
					t.Fatal(err)
				}

				var refBytes, torBytes bytes.Buffer
				if err := ref.Checkpoint(&refBytes); err != nil {
					t.Fatal(err)
				}
				if err := sess.Checkpoint(&torBytes); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(refBytes.Bytes(), torBytes.Bytes()) {
					t.Fatalf("w=%d: concurrent sharded submission diverged from single-threaded submission", w)
				}
				if ref.Stats.CommandsApplied == 0 || ref.Stats.CommandsRejected == 0 {
					t.Fatalf("torture scenario exercised no apply/reject path (applied %d, rejected %d)",
						ref.Stats.CommandsApplied, ref.Stats.CommandsRejected)
				}
			}
		})
	}
	for _, zp := range exec.Zoo {
		mk(zp.Name, zp.Src, false)
	}
	mk("battle-sim", "", true)
}

// Submissions racing a running clock must be admitted or cleanly
// refused, never lost or torn: admission touches only immutable engine
// state and its own queues, so it is safe concurrent with Tick itself.
// No byte comparison here — which boundary each batch lands before is
// genuinely nondeterministic — but every acknowledged command must be in
// the journal once the dust settles, exactly once.
func TestSubmitDuringStepRace(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, tortureUnits, Indexed, 4, nil)
	sess := NewSession(e)
	const actors, perActor = 4, 50
	var accepted [actors]int
	var wg sync.WaitGroup
	for k := 0; k < actors; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			origin := fmt.Sprintf("racer-%d", k)
			for i := 0; i < perActor; i++ {
				err := sess.Submit(origin, Command{Op: OpSet, Key: int64(i % tortureUnits), Col: "morale", Val: float64(i)})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				accepted[k]++
				if i%8 == 0 {
					runtime.Gosched()
				}
			}
		}(k)
	}
	stepErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := sess.Step(1); err != nil {
				stepErr <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-stepErr:
		t.Fatal(err)
	default:
	}
	if err := sess.Step(1); err != nil { // final drain boundary
		t.Fatal(err)
	}
	want := 0
	for _, n := range accepted {
		want += n
	}
	if got := len(sess.Journal()); got != want {
		t.Fatalf("journal has %d entries, %d commands were acknowledged", got, want)
	}
}

// The admission budget (queued + pending ≤ MaxPendingCommands) is
// enforced atomically across the sharded queues, and released when the
// tick boundary drains and applies the buffer.
func TestShardedBackpressure(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, tortureUnits, Indexed, 6, nil)
	sess := NewSession(e)
	batch := make([]Command, 512)
	for i := range batch {
		batch[i] = Command{Op: OpSet, Key: int64(i % tortureUnits), Col: "morale", Val: 1}
	}
	queued := 0
	for queued+len(batch) <= MaxPendingCommands {
		if err := sess.Submit("flood", batch...); err != nil {
			t.Fatalf("under the limit (%d queued): %v", queued, err)
		}
		queued += len(batch)
	}
	if err := sess.Submit("flood", batch...); err == nil {
		t.Fatalf("submission past MaxPendingCommands (%d queued) accepted", queued)
	}
	if err := sess.Step(1); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit("flood", batch...); err != nil {
		t.Fatalf("budget not released by the tick boundary: %v", err)
	}
}

// An acknowledged Submit must be part of the next checkpoint even if no
// tick boundary intervened: Checkpoint drains the sharded queues into
// the stamped pending buffer before serializing (the engine-level twin
// of the server's restore-survival test).
func TestShardedAdmissionCheckpointDrain(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, tortureUnits, Indexed, 8, nil)
	sess := NewSession(e)
	if err := sess.Step(3); err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit("saver", Command{Op: OpSet, Key: 2, Col: "health", Val: 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(bytes.NewReader(buf.Bytes()), game.NewMechanics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pend := restored.Pending()
	if len(pend) != 1 || pend[0].Origin != "saver" || pend[0].Tick != 4 {
		t.Fatalf("restored pending = %+v, want the acknowledged command stamped for tick 4", pend)
	}
	if got := len(restored.Journal()); got != 1 {
		t.Fatalf("restored journal has %d entries, want 1", got)
	}
}

// BenchmarkSubmitSharded measures command admission throughput at
// increasing actor counts. Each op is one admitted command; ticks to
// drain full buffers are included, as they would be in production.
func BenchmarkSubmitSharded(b *testing.B) {
	for _, actors := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("actors=%d", actors), func(b *testing.B) {
			benchSubmit(b, actors)
		})
	}
}

func benchSubmit(b *testing.B, actors int) {
	prog := battleProg(b)
	e := newEngine(b, prog, 64, Indexed, 11, nil)
	sess := NewSession(e)
	var stepMu sync.Mutex
	drain := func() error {
		stepMu.Lock()
		defer stepMu.Unlock()
		return sess.Step(1)
	}
	per := b.N/actors + 1
	b.ResetTimer()
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			origin := fmt.Sprintf("actor-%d", a)
			cmd := Command{Op: OpSet, Key: int64(a), Col: "morale", Val: 1}
			for i := 0; i < per; i++ {
				for {
					err := sess.Submit(origin, cmd)
					if err == nil {
						break
					}
					if derr := drain(); derr != nil {
						b.Error(derr)
						return
					}
				}
			}
		}(a)
	}
	wg.Wait()
}
