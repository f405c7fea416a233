package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// injectScripted submits the test's fixed command scenario for one tick
// boundary: every op, several origins, deliberately awkward arrival
// orders (later origins submit first), and a few commands whose
// apply-time rules must reject them. Deterministic by construction, so
// the journal it produces is the replay oracle.
func injectScripted(t testing.TB, e *Engine, tick int64) {
	t.Helper()
	submit := func(origin string, cmds ...Command) {
		t.Helper()
		if _, err := e.SubmitSharded(origin, cmds...); err != nil {
			t.Fatalf("tick %d: submit(%s): %v", tick, origin, err)
		}
	}
	switch tick {
	case 2:
		// bob arrives before alice; canonical order applies alice first.
		submit("bob", Command{Op: OpSet, Key: 6, Col: "morale", Val: 9})
		submit("alice", Command{Op: OpSet, Key: 5, Col: "health", Val: 12})
	case 4:
		// Two spawns race for the same key: alice wins on canonical order
		// (origin sorts first), bob's duplicate is rejected at apply time.
		submit("bob", Command{Op: OpSpawn, Row: game.NewUnit(9001, 1, game.Archer, geom.Point{X: 71, Y: 70})})
		submit("alice", Command{Op: OpSpawn, Row: game.NewUnit(9001, 0, game.Knight, geom.Point{X: 70, Y: 70})})
		submit("alice", Command{Op: OpSpawn, Row: game.NewUnit(9002, 1, game.Healer, geom.Point{X: 70, Y: 71})})
	case 6:
		submit("alice", Command{Op: OpDespawn, Key: 9001})
		submit("bob", Command{Op: OpDespawn, Key: 424242}) // no such unit: rejected
		// A set in the same batch as a population change: row indexes
		// shift under it, so the tick's delta must be void, not patched.
		submit("carol", Command{Op: OpSet, Key: 7, Col: "health", Val: 13})
	case 8:
		submit("ops", Command{Op: OpTune, Col: "_HEAL_AURA", Val: 5})
	case 10:
		submit("alice", Command{Op: OpSet, Key: 2, Col: "posx", Val: 3})
	}
}

// scriptedTicks is how long the interactive scenario runs: past the last
// injection with room for its effects to propagate.
const scriptedTicks = 14

// admitMidTick is the scenario's mid-tick traffic (Options.midTick):
// commands that arrive while a tick runs, after its decision. They take
// the sharded admission path, are stamped with the next tick and apply
// at the commit of the tick they arrived during: a set, a spawn, a
// posy move, a tune, a despawn, and a set and a despawn whose targets
// are gone, which the apply-time rules reject.
func admitMidTick(t testing.TB) func(*Engine) {
	return func(e *Engine) {
		var cmds []Command
		switch e.tick {
		case 1:
			cmds = []Command{{Op: OpSet, Key: 3, Col: "morale", Val: 1}}
		case 3:
			cmds = []Command{{Op: OpSpawn, Row: game.NewUnit(9003, 0, game.Archer, geom.Point{X: 72, Y: 70})}}
		case 5:
			cmds = []Command{
				{Op: OpSet, Key: 9003, Col: "health", Val: 2},
				{Op: OpSet, Key: 4, Col: "posy", Val: 5},
			}
		case 9:
			cmds = []Command{{Op: OpTune, Col: "_HEAL_AURA", Val: 3}, {Op: OpDespawn, Key: 9003}}
		case 11:
			cmds = []Command{{Op: OpSet, Key: 9003, Col: "morale", Val: 4}, {Op: OpDespawn, Key: 9003}}
		}
		if len(cmds) == 0 {
			return
		}
		if _, err := e.SubmitSharded("mid", cmds...); err != nil {
			t.Fatalf("tick %d: mid-tick admission: %v", e.tick, err)
		}
	}
}

// runLiveInteractive drives an engine through the scenario and returns
// its checkpoint bytes (with one command still pending, so the buffer's
// survival is part of every comparison).
func runLiveInteractive(t testing.TB, e *Engine) []byte {
	t.Helper()
	for tick := int64(0); tick < scriptedTicks; tick++ {
		injectScripted(t, e, tick)
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	// Left pending deliberately: checkpoints must carry the input buffer.
	if _, err := e.SubmitSharded("late", Command{Op: OpSet, Key: 1, Col: "morale", Val: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayFromJournal drives a fresh engine of the same (program, spec,
// seed) using only the recorded journal, and returns its checkpoint
// bytes. Before each Tick it submits the entries stamped one past the
// engine's tick: the batch that tick applies at its commit.
func replayFromJournal(t testing.TB, e *Engine, journal []StampedCommand) []byte {
	t.Helper()
	byTick := map[int64][]StampedCommand{}
	for _, sc := range journal {
		byTick[sc.Tick] = append(byTick[sc.Tick], sc)
	}
	for tick := int64(0); tick < scriptedTicks; tick++ {
		for _, sc := range byTick[tick+1] {
			if err := e.SubmitStamped(sc); err != nil {
				t.Fatalf("replay tick %d: %v", tick, err)
			}
		}
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	for _, sc := range byTick[scriptedTicks+1] {
		if err := e.SubmitStamped(sc); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayMatchesLive is the acceptance harness for exactness contract
// #5: a run replayed from the recorded input journal is byte-identical
// to the live interactive run — same checkpoint bytes, which cover the
// environment, every counter, the journal itself, the per-origin
// sequence numbers and the pending input buffer — for every zoo program
// and the battle simulation, at Workers {1, 4}, and identical across
// those configurations too. The live run also
// admits commands mid-tick (admitMidTick); the journal records them with
// the stamp of the commit that applied them, and the replay, which has
// no mid-tick traffic of its own, applies them at that same commit.
func TestReplayMatchesLive(t *testing.T) {
	const units = 64
	mk := func(progName, src string, battle bool) {
		t.Run(progName, func(t *testing.T) {
			prog := battleProg(t)
			if !battle {
				prog = compileZoo(t, src)
			}
			var first []byte
			for _, w := range restoreWorkers {
				tweak := func(o *Options) {
					o.Workers = w
					o.threshold = 1 // always maintain: the hostile setting
				}
				live := newEngine(t, prog, units, Indexed, 7, func(o *Options) {
					tweak(o)
					o.midTick = admitMidTick(t)
				})
				liveBytes := runLiveInteractive(t, live)
				replay := newEngine(t, prog, units, Indexed, 7, tweak)
				replayBytes := replayFromJournal(t, replay, live.Journal())
				if !bytes.Equal(liveBytes, replayBytes) {
					t.Fatalf("w=%d: journal replay diverged from the live interactive run", w)
				}
				if !slices.ContainsFunc(live.Journal(), func(sc StampedCommand) bool { return sc.Origin == "mid" }) {
					t.Fatal("no mid-tick admission reached the journal")
				}
				if live.Stats.CommandsApplied == 0 || live.Stats.CommandsRejected == 0 {
					t.Fatalf("scenario exercised no apply/reject path (applied %d, rejected %d)",
						live.Stats.CommandsApplied, live.Stats.CommandsRejected)
				}
				if first == nil {
					first = liveBytes
				} else if !bytes.Equal(first, liveBytes) {
					t.Fatalf("w=%d: checkpoint bytes differ from w=1", w)
				}
			}
		})
	}
	for _, zp := range exec.Zoo {
		mk(zp.Name, zp.Src, false)
	}
	mk("battle-sim", "", true)
}

// Submissions from different origins apply in canonical (origin, seq)
// order, so the world is independent of arrival interleaving: submitting
// the same per-origin sequences in opposite arrival orders yields
// byte-identical checkpoints (including journals and sequence counters).
func TestCommandOrderIndependence(t *testing.T) {
	prog := battleProg(t)
	run := func(aliceFirst bool) []byte {
		e := newEngine(t, prog, 64, Indexed, 3, nil)
		if err := e.Run(2); err != nil {
			t.Fatal(err)
		}
		a := func() {
			if _, err := e.SubmitSharded("alice",
				Command{Op: OpSet, Key: 4, Col: "health", Val: 7},
				Command{Op: OpSet, Key: 4, Col: "morale", Val: 1}); err != nil {
				t.Fatal(err)
			}
		}
		b := func() {
			if _, err := e.SubmitSharded("bob",
				Command{Op: OpSet, Key: 4, Col: "health", Val: 20}); err != nil {
				t.Fatal(err)
			}
		}
		if aliceFirst {
			a()
			b()
		} else {
			b()
			a()
		}
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("arrival interleaving leaked into the world")
	}
}

// Submit-time validation: structurally invalid commands are refused with
// an error (and the whole batch with them — all-or-nothing), before
// anything reaches the buffer or journal.
func TestSubmitValidation(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 48, Indexed, 5, nil)
	nan := math.NaN()
	cases := []struct {
		name string
		cmd  Command
		want string
	}{
		{"short-row", Command{Op: OpSpawn, Row: []float64{1, 2}}, "width"},
		{"nan-row", Command{Op: OpSpawn, Row: nanRow(prog, nan)}, "finite"},
		{"neg-key-spawn", Command{Op: OpSpawn, Row: game.NewUnit(-4, 0, 0, geom.Point{X: 1, Y: 1})}, "non-negative"},
		{"out-of-world", Command{Op: OpSpawn, Row: game.NewUnit(9000, 0, 0, geom.Point{X: 1e6, Y: 1})}, "outside the world"},
		{"neg-despawn", Command{Op: OpDespawn, Key: -1}, "non-negative"},
		{"unknown-col", Command{Op: OpSet, Key: 1, Col: "nosuch", Val: 1}, "no column"},
		{"set-key", Command{Op: OpSet, Key: 1, Col: "key", Val: 9}, "immutable"},
		{"set-effect-col", Command{Op: OpSet, Key: 1, Col: "damage", Val: 9}, "effect column"},
		{"set-nan", Command{Op: OpSet, Key: 1, Col: "health", Val: nan}, "finite"},
		{"set-pos-out", Command{Op: OpSet, Key: 1, Col: "posx", Val: -3}, "outside the world"},
		{"unknown-const", Command{Op: OpTune, Col: "_NOSUCH", Val: 1}, "no game constant"},
		{"bad-op", Command{Op: CommandOp(99)}, "unknown command op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := e.SubmitSharded("t", tc.cmd)
			if err == nil {
				t.Fatal("invalid command accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
	// All-or-nothing: a batch with one bad command enqueues nothing.
	_, err := e.SubmitSharded("t",
		Command{Op: OpSet, Key: 1, Col: "health", Val: 5},
		Command{Op: OpSet, Key: 1, Col: "nosuch", Val: 5})
	if err == nil {
		t.Fatal("batch with an invalid command accepted")
	}
	if e.inflight.Load() != 0 || len(e.Pending()) != 0 || len(e.Journal()) != 0 {
		t.Fatal("a rejected batch left state behind")
	}
}

// Apply-time rules reject deterministically and keep the engine running:
// duplicate spawn keys, occupied squares, missing despawn/set targets.
func TestApplyTimeRejections(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 48, Indexed, 5, nil)
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	n := e.Env().Len()
	// Find a live unit's square to collide with, where the unit stands
	// when the batch applies: at the commit of the next tick, after its
	// movement. A twin without the batch is there one tick ahead.
	twin := newEngine(t, prog, 48, Indexed, 5, nil)
	if err := twin.Run(2); err != nil {
		t.Fatal(err)
	}
	row0 := twin.Env().Rows[0]
	px, _ := prog.Schema.Col("posx")
	py, _ := prog.Schema.Col("posy")
	occupied := geom.Point{X: row0[px], Y: row0[py]}
	key0 := int64(row0[prog.Schema.KeyCol()])

	_, err := e.SubmitSharded("t",
		Command{Op: OpSpawn, Row: game.NewUnit(7000, 0, game.Knight, occupied)},                 // onto a live unit
		Command{Op: OpSpawn, Row: game.NewUnit(key0, 0, game.Knight, geom.Point{X: 60, Y: 60})}, // duplicate key
		Command{Op: OpDespawn, Key: 555555},                                                     // no such unit
		Command{Op: OpSet, Key: 666666, Col: "health", Val: 3},                                  // no such unit
		Command{Op: OpSet, Key: key0, Col: "health", Val: 21},                                   // fine
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	if e.Stats.CommandsRejected != 4 {
		t.Fatalf("CommandsRejected = %d, want 4", e.Stats.CommandsRejected)
	}
	if e.Stats.CommandsApplied != 1 {
		t.Fatalf("CommandsApplied = %d, want 1", e.Stats.CommandsApplied)
	}
	if e.Env().Len() != n {
		t.Fatalf("population changed: %d → %d", n, e.Env().Len())
	}
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
}

// Spawn and despawn change the population mid-run; the engine (and the
// incremental-maintenance machinery, which diffs positionally) must keep
// matching a rebuild-from-scratch twin afterwards.
func TestSpawnDespawnPopulationChange(t *testing.T) {
	prog := battleProg(t)
	a := newEngine(t, prog, 48, Indexed, 9, func(o *Options) { o.threshold = 1 })
	b := newEngine(t, prog, 48, Indexed, 9, rebuildOnly)
	drive := func(e *Engine) {
		t.Helper()
		if err := e.Run(3); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SubmitSharded("t",
			Command{Op: OpSpawn, Row: game.NewUnit(8001, 0, game.Archer, geom.Point{X: 65, Y: 65})},
			Command{Op: OpDespawn, Key: 2},
		); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(4); err != nil {
			t.Fatal(err)
		}
	}
	drive(a)
	drive(b)
	if a.Env().Len() != 48 { // -1 despawn +1 spawn
		t.Fatalf("population = %d, want 48", a.Env().Len())
	}
	if !identicalTables(a.Env(), b.Env()) {
		t.Fatal("maintaining engine diverged from rebuild twin after population change")
	}
	assertRebuilt(t, b)
	if a.rowIndexByKey(8001) < 0 {
		t.Fatal("spawned unit missing")
	}
	if a.rowIndexByKey(2) >= 0 {
		t.Fatal("despawned unit still present")
	}
}

// OpTune retunes THIS engine's constants only: a sibling engine built
// from the same program object keeps the original values, and the tuned
// value shows up in the program's constants and in behavior from the next tick.
func TestTuneConstIsolation(t *testing.T) {
	prog := battleProg(t)
	a := newEngine(t, prog, 48, Indexed, 5, nil)
	b := newEngine(t, prog, 48, Indexed, 5, nil)
	if _, err := a.SubmitSharded("ops", Command{Op: OpTune, Col: "_HEAL_AURA", Val: 11}); err != nil {
		t.Fatal(err)
	}
	if err := a.Tick(); err != nil {
		t.Fatal(err)
	}
	if v := a.prog.Consts["_HEAL_AURA"]; v != 11 {
		t.Fatalf("tuned const = %v, want 11", v)
	}
	if v := b.prog.Consts["_HEAL_AURA"]; v != game.Consts()["_HEAL_AURA"] {
		t.Fatalf("sibling engine's const changed to %v", v)
	}
	if v := prog.Consts["_HEAL_AURA"]; v != game.Consts()["_HEAL_AURA"] {
		t.Fatalf("caller's program consts mutated to %v", v)
	}
}

// Mid-stream checkpoint/restore: checkpoint a live interactive run while
// commands are pending, reopen it through the self-contained Open (no
// program supplied), and both runs — interrupted and uninterrupted —
// must finish byte-identical. This is the satellite proof that journaled
// and pending inputs survive Open.
func TestCheckpointMidStreamOpen(t *testing.T) {
	prog := battleProg(t)
	const cut = 6 // mid-scenario: the tick-6 despawns are submitted but not yet applied

	oracle := newEngine(t, prog, 64, Indexed, 7, nil)
	oracleBytes := runLiveInteractive(t, oracle)

	writer := newEngine(t, prog, 64, Indexed, 7, nil)
	for tick := int64(0); tick < cut; tick++ {
		injectScripted(t, writer, tick)
		if err := writer.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	injectScripted(t, writer, cut) // pending at the checkpoint
	var mid bytes.Buffer
	if err := writer.Checkpoint(&mid); err != nil {
		t.Fatal(err)
	}

	for _, w := range restoreWorkers {
		sess, err := Open(bytes.NewReader(mid.Bytes()), game.NewMechanics(), Options{Workers: w})
		if err != nil {
			t.Fatalf("open at w=%d: %v", w, err)
		}
		e := sess.Engine()
		e.opts.threshold = 1
		if got := len(e.Pending()); got == 0 {
			t.Fatal("pending commands did not survive Open")
		}
		for tick := int64(cut); tick < scriptedTicks; tick++ {
			if tick != cut { // cut's commands came back inside the checkpoint
				injectScripted(t, e, tick)
			}
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.SubmitSharded("late", Command{Op: OpSet, Key: 1, Col: "morale", Val: 2}); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := e.Checkpoint(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oracleBytes, got.Bytes()) {
			t.Fatalf("mid-stream Open at w=%d diverged from the uninterrupted run", w)
		}
	}
}

// nanRow builds a full-width row with one NaN cell (helper for the
// validation table).
func nanRow(prog *sem.Program, nan float64) []float64 {
	row := game.NewUnit(9100, 0, 0, geom.Point{X: 1, Y: 1})
	row[prog.Schema.MustCol("health")] = nan
	return row
}

// TestCommandLandsInItsTicksView pins where the admission boundary sits:
// a command admitted while tick t runs — after its decision, through the
// sharded queues (Options.midTick) — is stamped t+1, applied at t's
// commit, and so is in the view t publishes (labelled t+1), in the delta
// t captures (the diff between views t and t+1), and in a one-shot
// sum read on view t+1. From the view published at admission to the first
// view showing the batch is one view. Over the battle and every zoo
// program at every cell of the grid.
func TestCommandLandsInItsTicksView(t *testing.T) {
	const units, seed, warm = 64, 5, 3
	const val = 1e6 // far above any morale a unit holds, so the sum shows it
	sum := compileQuery(t, `aggregate Morale(u) := sum(e.morale) as m over e;`)
	type world struct {
		name string
		prog *sem.Program
	}
	worlds := []world{{"battle", battleProg(t)}}
	for _, zp := range exec.Zoo {
		worlds = append(worlds, world{zp.Name, compileZoo(t, zp.Src)})
	}
	for _, w := range worlds {
		for _, c := range cells {
			t.Run(fmt.Sprintf("%s/%v", w.name, c), func(t *testing.T) {
				e := newEngine(t, w.prog, units, Indexed, seed, c.tune)
				if err := e.Run(warm); err != nil {
					t.Fatal(err)
				}
				key := int64(e.env.Rows[7][e.prog.Schema.KeyCol()])
				admittedAt := int64(-1)
				e.opts.midTick = func(e *Engine) {
					if admittedAt >= 0 {
						return
					}
					var err error
					if admittedAt, err = e.SubmitSharded("mid", Command{Op: OpSet, Key: key, Col: "morale", Val: val}); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Tick(); err != nil {
					t.Fatal(err)
				}
				if admittedAt != warm {
					t.Fatalf("admitted at view %d, want %d", admittedAt, warm)
				}
				v := e.ReadView()
				mc := e.prog.Schema.MustCol("morale")
				ri, _ := v.keys.Get(key)
				row := v.env.Rows[ri]
				if row[mc] != val {
					t.Fatalf("view %d shows morale %v for unit %d: the batch admitted at view %d is not in it (one view from admission to visibility)",
						v.Tick(), row[mc], key, admittedAt)
				}
				if views := v.Tick() - admittedAt; views != 1 {
					t.Fatalf("%d views from admission to visibility, want 1", views)
				}
				j := e.Journal()
				if len(j) != 1 || j[0].Origin != "mid" || j[0].Tick != v.Tick() {
					t.Fatalf("journal %+v, want the batch stamped %d", j, v.Tick())
				}
				named := false
				for k, i := range e.delta.Dirty {
					named = named || (i == int(ri) && e.delta.Masks[k]&exec.ColBit(mc) != 0)
				}
				if !e.deltaOK || !named {
					t.Fatalf("tick %d's delta (valid %v) does not name unit %d's morale", warm, e.deltaOK, key)
				}
				got, err := v.Query(sum, World())
				if err != nil {
					t.Fatal(err)
				}
				scan, err := v.QueryScan(sum, World())
				if err != nil {
					t.Fatal(err)
				}
				if got[0] < val || math.Float64bits(got[0]) != math.Float64bits(scan[0]) {
					t.Fatalf("sum(morale) at view %d is %v (scan %v); the batch should show in it", v.Tick(), got[0], scan[0])
				}
				c.held(t, e)
			})
		}
	}
}

// TestCommandOpWireNames: every operation encodes as its wire name and
// decodes back; an unknown name is refused and an unknown code still
// prints.
func TestCommandOpWireNames(t *testing.T) {
	for op, name := range map[CommandOp]string{OpSpawn: "spawn", OpDespawn: "despawn", OpSet: "set", OpTune: "tune"} {
		if op.String() != name {
			t.Errorf("%d.String() = %q, want %q", uint8(op), op.String(), name)
		}
		b, err := json.Marshal(op)
		if err != nil || string(b) != `"`+name+`"` {
			t.Fatalf("Marshal(%s) = %s, %v", name, b, err)
		}
		var back CommandOp
		if err := json.Unmarshal(b, &back); err != nil || back != op {
			t.Fatalf("Unmarshal(%s) = %v, %v; want %v", b, back, err, op)
		}
	}
	var op CommandOp
	if err := json.Unmarshal([]byte(`"teleport"`), &op); err == nil {
		t.Fatal("an unknown op name decoded")
	}
	if s := CommandOp(200).String(); s != "op(200)" {
		t.Errorf("CommandOp(200).String() = %q, want op(200)", s)
	}
}
