package engine

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// neverMaintain is the threshold of the rebuild seam: an engine run with
// it never calls MaintainFrom — every tick rebuilds its indexes and
// carries no answer. It is the reference side of maintained ≡ rebuilt.
const neverMaintain = -1

// rebuildOnly sets the rebuild seam.
func rebuildOnly(o *Options) { o.threshold = neverMaintain }

// gridCell is one configuration of the differential grids: a shard
// count, and whether the engine maintains its indexes (the default
// threshold decides per structure) or stays on the rebuild seam.
type gridCell struct {
	workers int
	rebuild bool
}

// cells is Workers {1, 4} × {maintaining, rebuild seam}: every cell must
// give the same bytes, so maintenance never shows in what a world does.
var cells = []gridCell{{1, false}, {1, true}, {4, false}, {4, true}}

func (c gridCell) String() string { return fmt.Sprintf("w%d-rebuild%v", c.workers, c.rebuild) }

// threshold is the cell's test threshold: the default, or the seam's.
func (c gridCell) threshold() float64 {
	if c.rebuild {
		return neverMaintain
	}
	return 0
}

// tune applies the cell to o.
func (c gridCell) tune(o *Options) { o.Workers, o.threshold = c.workers, c.threshold() }

// held fails unless an engine run in a rebuild cell stayed on the seam.
func (c gridCell) held(t testing.TB, e *Engine) {
	t.Helper()
	if c.rebuild {
		assertRebuilt(t, e)
	}
}

// assertRebuilt fails unless e maintained nothing over its run: no tick
// maintained, no structure reused or patched, no answer carried — so a
// differential against it compares maintained with rebuilt, never
// maintained with maintained.
func assertRebuilt(t testing.TB, e *Engine) {
	t.Helper()
	if is := e.Stats.IndexStats; e.Stats.MaintainTicks != 0 || is.IndexReuses != 0 || is.IndexPatches != 0 ||
		is.CarriedAnswers != 0 || is.CertifiedAnswers != 0 {
		t.Fatalf("the rebuild reference maintained: %d ticks, %d reuses, %d patches, %d carried and %d certified answers",
			e.Stats.MaintainTicks, is.IndexReuses, is.IndexPatches, is.CarriedAnswers, is.CertifiedAnswers)
	}
}

// TestIncrementalMatchesRebuild is the differential harness for
// incremental index maintenance: for every zoo program and for the battle
// simulation, an engine that patches its indexes from the previous tick
// must leave an environment byte-identical to one that rebuilds from
// scratch — at every single tick (not just the end state), and at both
// Workers = 1 and Workers = 4. The maintaining engines run with threshold
// 1 so maintenance engages regardless of churn: this is the hostile
// setting, since high-churn ticks patch almost every partition.
func TestIncrementalMatchesRebuild(t *testing.T) {
	const units, ticks, seed = 64, 100, 7
	mk := func(t *testing.T, progName, src string, battle bool, n int) {
		t.Run(progName, func(t *testing.T) {
			prog := battleProg(t)
			if !battle {
				prog = compileZoo(t, src)
			}
			alwaysMaintain := func(w int) *Engine {
				return newEngine(t, prog, n, Indexed, seed, func(o *Options) {
					o.Workers = w
					o.threshold = 1
				})
			}
			oracle := newEngine(t, prog, n, Indexed, seed, func(o *Options) { o.Workers, o.threshold = 1, neverMaintain })
			inc1, inc4 := alwaysMaintain(1), alwaysMaintain(4)
			for tick := 0; tick < ticks; tick++ {
				for _, e := range []*Engine{oracle, inc1, inc4} {
					if err := e.Tick(); err != nil {
						t.Fatalf("tick %d: %v", tick, err)
					}
				}
				if !identicalTables(oracle.Env(), inc1.Env()) {
					t.Fatalf("incremental w=1 diverged from rebuild at tick %d", tick)
				}
				if !identicalTables(oracle.Env(), inc4.Env()) {
					t.Fatalf("incremental w=4 diverged from rebuild at tick %d", tick)
				}
			}
			assertRebuilt(t, oracle)
			// Guard against the test passing vacuously. Some zoo programs
			// legitimately have nothing to maintain (residual-only
			// definitions force scans), and the serial engine's IndexBuilds
			// also counts per-tick Section 5.4 effect indexes, so the
			// engagement check is only sound on the frozen w=4 engine,
			// where Freeze provably installs every indexable definition.
			if is := inc4.Stats.IndexStats; is.IndexBuilds > 0 && inc4.Stats.MaintainTicks == 0 {
				t.Error("index structures were built but maintenance never engaged")
			}
			// The zoo's carried-answers world is here to carry answers from
			// tick to tick; a run where none carried would prove nothing.
			if progName == "carried-answers" {
				for w, e := range map[int]*Engine{1: inc1, 4: inc4} {
					if e.Stats.IndexStats.CarriedAnswers == 0 {
						t.Errorf("w=%d: no answer carried", w)
					}
				}
			}
			if battle {
				is := inc1.Stats.IndexStats
				if is.IndexReuses == 0 || is.IndexPatches == 0 {
					t.Errorf("battle maintenance should reuse and patch structures; got reuses=%d patches=%d",
						is.IndexReuses, is.IndexPatches)
				}
			}
		})
	}
	for _, zp := range exec.Zoo {
		mk(t, zp.Name, zp.Src, false, units)
	}
	mk(t, "battle-sim", "", true, 90)
}

// sentinelScript is the patrol world with teeth: the garrison stands
// still and, at random, strikes its nearest scout, so every nearest
// answer — certified or searched — reaches the rows, and the struck
// scouts die and respawn elsewhere (teleports).
const sentinelScript = `
aggregate NearestScout(u) :=
  nearestkey() as key
  over e where e.player = u.player and e.unittype = 2;

action Patrol(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;

action Strike(u, k) :=
  on e where e.key = k
  set damage = 1;

function main(u) {
  if u.unittype = 2 then
    perform Patrol(u, u.posx + Random(1) % 9 - 4, u.posy + Random(2) % 9 - 4);
  else (let s = NearestScout(u)) { if s % 40 = Random(3) % 40 then perform Strike(u, s) }
}
`

// TestCarryMatchesRebuildUnderCommands runs the low-churn patrol world,
// its sentinel variant and the zoo's carried-answers world maintained at
// Workers 1 and 4 — where aggregate answers carry, and nearest answers
// certify, from tick to tick — against a rebuilding oracle for 300 ticks,
// through every command that must break a carry or leave it standing: a
// set on a column a carried call reads off its unit (a knight's sight),
// one nothing reads (morale), one a carried call folds over (a knight's
// health), a spawn, a despawn, a tune, and a restore of the incremental
// engines from their own checkpoints mid-run. The environments must agree
// bit for bit at every tick, the two incremental runs must end in
// byte-identical checkpoints, and the patrol and carried-answers worlds
// must carry answers, the patrol and sentinel worlds certify nearest
// ones, before the restore and after it.
func TestCarryMatchesRebuildUnderCommands(t *testing.T) {
	const n, ticks, seed = 300, 300, 5
	for _, world := range []struct {
		name, src      string
		carry, certify bool
	}{
		{"patrol", game.PatrolScript, true, true},
		{"sentinel", sentinelScript, false, true},
		{"carried-answers", zooSrc(t, "carried-answers"), true, false},
	} {
		t.Run(world.name, func(t *testing.T) {
			prog := compileZoo(t, world.src)
			spec := workload.Spec{Units: n, Density: 0.01, Seed: seed, Formation: workload.BattleLines, Mix: [3]int{20, 4, 1}}
			mk := func(w int, threshold float64) *Engine {
				e, err := New(prog, game.NewMechanics(), workload.Generate(spec), Options{
					Mode: Indexed, Categoricals: game.Categoricals(), Seed: seed, Side: spec.Side(), MoveSpeed: 1,
					Workers: w, threshold: threshold,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			oracle := mk(1, neverMaintain)
			incs := []*Engine{mk(1, 1), mk(4, 1)}
			carries := func(when string) {
				for _, e := range incs {
					if e.Stats.IndexStats.CarriedAnswers == 0 && world.carry {
						t.Errorf("w=%d: no answer carried %s the restore", e.Workers(), when)
					}
					if e.Stats.IndexStats.CertifiedAnswers == 0 && world.certify {
						t.Errorf("w=%d: no answer certified %s the restore", e.Workers(), when)
					}
				}
			}

			s := prog.Schema
			kc, ut := s.KeyCol(), s.MustCol("unittype")
			var knight int64 = -1
			for _, row := range oracle.Env().Rows {
				if row[ut] == game.Knight {
					knight = int64(row[kc])
					break
				}
			}
			const spawned = 90001
			for tick := 0; tick < ticks; tick++ {
				var cmds []Command
				switch tick {
				case 20:
					cmds = []Command{{Op: OpSet, Key: knight, Col: "sight", Val: 9}}
				case 40:
					cmds = []Command{{Op: OpSet, Key: knight, Col: "morale", Val: 3}}
				case 60:
					cmds = []Command{{Op: OpSet, Key: knight, Col: "health", Val: 21}}
				case 80:
					cmds = []Command{{Op: OpSpawn, Row: game.NewUnit(spawned, 1, game.Knight, freeSquare(t, oracle))}}
				case 100:
					cmds = []Command{{Op: OpDespawn, Key: knight}}
				case 120:
					cmds = []Command{{Op: OpTune, Col: "_HEAL_AURA", Val: 5}}
				case 150:
					carries("before")
					for i, e := range incs {
						var buf bytes.Buffer
						if err := e.Checkpoint(&buf); err != nil {
							t.Fatal(err)
						}
						incs[i] = reopen(t, buf.Bytes(), Options{Workers: e.Workers(), threshold: 1})
					}
				}
				for _, e := range append([]*Engine{oracle}, incs...) {
					if len(cmds) > 0 {
						if _, err := e.SubmitSharded("test", cmds...); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.Tick(); err != nil {
						t.Fatalf("tick %d: %v", tick, err)
					}
				}
				for _, e := range incs {
					if !identicalTables(oracle.Env(), e.Env()) {
						t.Fatalf("incremental w=%d diverged from rebuild at tick %d", e.Workers(), tick)
					}
				}
			}
			if oracle.Stats.CommandsApplied != 6 {
				t.Fatalf("%d of 6 commands applied", oracle.Stats.CommandsApplied)
			}
			assertRebuilt(t, oracle)
			carries("after")
			var ckpts [2]bytes.Buffer
			for i, e := range incs {
				if err := e.Checkpoint(&ckpts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(ckpts[0].Bytes(), ckpts[1].Bytes()) {
				t.Error("the incremental runs at Workers 1 and 4 checkpoint differently")
			}
		})
	}
}

// zooSrc returns the source of the zoo program called name.
func zooSrc(t *testing.T, name string) string {
	t.Helper()
	for _, zp := range exec.Zoo {
		if zp.Name == name {
			return zp.Src
		}
	}
	t.Fatalf("no zoo program %q", name)
	return ""
}

// The default threshold must fall back to rebuilding on high-churn
// definitions without changing outcomes.
func TestIncrementalThresholdFallback(t *testing.T) {
	prog := battleProg(t)
	oracle := newEngine(t, prog, 80, Indexed, 11, rebuildOnly)
	inc := newEngine(t, prog, 80, Indexed, 11, nil) // default threshold
	tiny := newEngine(t, prog, 80, Indexed, 11, func(o *Options) {
		o.threshold = 1e-9 // everything relevant falls back
	})
	for tick := 0; tick < 30; tick++ {
		for _, e := range []*Engine{oracle, inc, tiny} {
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if !identicalTables(oracle.Env(), inc.Env()) {
			t.Fatalf("default-threshold incremental diverged at tick %d", tick)
		}
		if !identicalTables(oracle.Env(), tiny.Env()) {
			t.Fatalf("tiny-threshold incremental diverged at tick %d", tick)
		}
	}
	if tiny.Stats.IndexStats.MaintainFallbacks == 0 {
		t.Error("tiny threshold should force fallbacks on a battle workload")
	}
	assertRebuilt(t, oracle)
}

// Maintenance must compose with the ablation options.
func TestIncrementalComposesWithAblations(t *testing.T) {
	prog := battleProg(t)
	for _, tweak := range []struct {
		name string
		fn   func(*Options)
	}{
		{"no-area-defer", func(o *Options) { o.DisableAreaDefer = true }},
		{"no-optimizer", func(o *Options) { o.DisableOptimizer = true }},
	} {
		t.Run(tweak.name, func(t *testing.T) {
			oracle := newEngine(t, prog, 72, Indexed, 17, func(o *Options) {
				tweak.fn(o)
				rebuildOnly(o)
			})
			inc := newEngine(t, prog, 72, Indexed, 17, func(o *Options) {
				tweak.fn(o)
				o.threshold = 1
			})
			for tick := 0; tick < 25; tick++ {
				if err := oracle.Tick(); err != nil {
					t.Fatal(err)
				}
				if err := inc.Tick(); err != nil {
					t.Fatal(err)
				}
				if !identicalTables(oracle.Env(), inc.Env()) {
					t.Fatalf("%s: incremental diverged at tick %d", tweak.name, tick)
				}
			}
		})
	}
}

// The delta capture must see every mutation path: effects, movement,
// death/respawn. Run a combat-heavy battle and check the recorded dirty
// rows are plausible (some rows dirty, not all rows every tick would also
// be fine — what matters is divergence, covered above — but a zero delta
// under heavy combat means capture is broken).
func TestDeltaCaptureSeesCombat(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 90, Indexed, 3, func(o *Options) { o.threshold = 1 })
	if err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if e.Stats.MaintainTicks == 0 {
		t.Fatal("maintenance never engaged")
	}
	if e.Stats.DirtyRows == 0 {
		t.Fatal("battle ran 20 ticks with an empty delta — capture broken")
	}
}

func BenchmarkTickIncremental500(b *testing.B) {
	prog := battleProg(b)
	for _, inc := range []bool{false, true} {
		name, threshold := "rebuild", float64(neverMaintain)
		if inc {
			name, threshold = "incr", 0
		}
		b.Run(name, func(b *testing.B) {
			e := newEngine(b, prog, 500, Indexed, 42, func(o *Options) {
				o.Workers = 1
				o.threshold = threshold
			})
			if err := e.Run(3); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Tick(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newSentryEngine builds the low-churn patrol world of the sentry
// benchmarks (game.PatrolScript; one unit in 25 a scout), serial, past
// the ticks maintenance needs to engage.
func newSentryEngine(t testing.TB, n int) *Engine {
	t.Helper()
	spec := workload.Spec{Units: n, Density: 0.01, Seed: 42, Formation: workload.BattleLines, Mix: [3]int{20, 4, 1}}
	e, err := New(compileZoo(t, game.PatrolScript), game.NewMechanics(), workload.Generate(spec), Options{
		Mode:         Indexed,
		Categoricals: game.Categoricals(),
		Seed:         42,
		Side:         spec.Side(),
		MoveSpeed:    1,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCommandSetDirtiesOnlyItsColumn pins the column-exact command
// masks. In the sentry world only the scouts move, so a quiet tick
// rebuilds the scouts' kD-trees and nothing else. A morale set on a
// knight changes a column no index reads: the tick whose commit applies
// it, and the next one, the first whose indexes see the edit, must each
// rebuild exactly what a quiet tick does, while a sum(e.morale) read
// on every view shows the edit. A posx set on a knight must
// still rebuild that knight's partition in the tick after its commit.
func TestCommandSetDirtiesOnlyItsColumn(t *testing.T) {
	e := newSentryEngine(t, 600)
	morale := compileQuery(t, `aggregate Morale(u) := sum(e.morale) as m over e;`)
	s := e.prog.Schema
	kc, ut, px, py := s.KeyCol(), s.MustCol("unittype"), e.posX, e.posY
	knight := -1
	for i, row := range e.env.Rows {
		if row[ut] == game.Knight {
			knight = i
			break
		}
	}
	key := int64(e.env.Rows[knight][kc])

	read := func() float64 {
		t.Helper()
		got, err := e.ReadView().Query(morale, World())
		if err != nil {
			t.Fatal(err)
		}
		scan, err := e.ReadView().QueryScan(morale, World())
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != scan[0] {
			t.Fatalf("tick %d: sum(morale) %v, scan %v", e.TickCount(), got[0], scan[0])
		}
		return got[0]
	}
	// step submits cmds, ticks, and returns the tick's index builds.
	step := func(cmds ...Command) int {
		t.Helper()
		if len(cmds) > 0 {
			if _, err := e.SubmitSharded("test", cmds...); err != nil {
				t.Fatal(err)
			}
		}
		b0 := e.Stats.IndexStats.IndexBuilds
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		read()
		return e.Stats.IndexStats.IndexBuilds - b0
	}
	read()
	step()
	scouts := step()
	if scouts != 2 {
		t.Fatalf("a quiet tick built %d structures, want the two players' scout kD-trees", scouts)
	}

	mc := e.prog.Schema.MustCol("morale")
	before, want := read(), e.env.Rows[knight][mc]+100
	if builds := step(Command{Op: OpSet, Key: key, Col: "morale", Val: want}); builds != scouts {
		t.Errorf("the tick whose commit applies a morale set built %d structures, a quiet tick %d", builds, scouts)
	}
	if read() == before {
		t.Errorf("sum(morale) %v did not move after the morale set", before)
	}
	if builds := step(); builds != scouts {
		t.Errorf("the first tick to index a morale set built %d structures, a quiet tick %d", builds, scouts)
	}

	// Move the knight one square along x, to a square nobody holds.
	x, y := e.env.Rows[knight][px], e.env.Rows[knight][py]
	free := func(nx float64) bool {
		for _, row := range e.env.Rows {
			if math.Floor(row[px]) == math.Floor(nx) && math.Floor(row[py]) == math.Floor(y) {
				return false
			}
		}
		return nx >= 0 && nx < e.opts.Side
	}
	nx := x + 1
	if !free(nx) {
		nx = x - 1
	}
	if !free(nx) {
		t.Fatalf("knight %d at (%v, %v) has no free square beside it", key, x, y)
	}
	if builds := step(Command{Op: OpSet, Key: key, Col: "posx", Val: nx}); builds != scouts {
		t.Errorf("the tick whose commit applies a posx set built %d structures, a quiet tick %d", builds, scouts)
	}
	if e.env.Rows[knight][px] != nx {
		t.Fatalf("the posx set was not applied: knight at x=%v, want %v", e.env.Rows[knight][px], nx)
	}
	if builds := step(); builds <= scouts {
		t.Errorf("the first tick to index a posx set on a knight built %d structures, no more than a quiet tick's %d: its partition was not rebuilt", builds, scouts)
	}
}

// freeSquare returns a square of e's world no unit holds when a command
// submitted now applies — at the next tick's commit, after that tick's
// movement and respawns — scanning down from the far corner, column by
// column. A twin reopened from e's checkpoint runs that tick to see it.
func freeSquare(t testing.TB, e *Engine) geom.Point {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	twin := reopen(t, buf.Bytes(), Options{Workers: 1})
	if err := twin.Tick(); err != nil {
		t.Fatal(err)
	}
	taken := map[[2]float64]bool{}
	for _, row := range twin.env.Rows {
		taken[[2]float64{math.Floor(row[twin.posX]), math.Floor(row[twin.posY])}] = true
	}
	side := twin.opts.Side
	for x := side - 1; ; x-- {
		for y := side - 1; y >= 0; y-- {
			if !taken[[2]float64{x, y}] {
				return geom.Point{X: x, Y: y}
			}
		}
	}
}

// deltaTraffic is TestDeltaIsViewDiff's command stream for one tick
// boundary: sets on a column the tick never writes (morale) and on one it
// does (health), a set to the value the cell already holds, a set in the
// same batch as a tune and in the same batch as a despawn, a spawn, a
// despawn, and both in one batch. It returns the commands and whether
// they change the population.
func deltaTraffic(t testing.TB, e *Engine, tick int) ([]Command, bool) {
	kc, hc := e.prog.Schema.KeyCol(), e.prog.Schema.MustCol("health")
	key := func(i int) int64 { return int64(e.env.Rows[i][kc]) }
	switch tick {
	case 0:
		return []Command{{Op: OpSet, Key: key(3), Col: "morale", Val: 50}}, false
	case 2:
		return []Command{
			{Op: OpSet, Key: key(5), Col: "health", Val: e.env.Rows[5][hc]},
			{Op: OpSet, Key: key(9), Col: "health", Val: 1},
		}, false
	case 4:
		return []Command{{Op: OpSpawn, Row: game.NewUnit(7001, 1, game.Knight, freeSquare(t, e))}}, true
	case 6:
		return []Command{{Op: OpDespawn, Key: key(3)}, {Op: OpSet, Key: key(11), Col: "morale", Val: 4}}, true
	case 8:
		return []Command{{Op: OpTune, Col: "_HEAL_AURA", Val: 5}, {Op: OpSet, Key: key(12), Col: "health", Val: 2}}, false
	case 10:
		return []Command{{Op: OpSet, Key: key(2), Col: "morale", Val: 8}, {Op: OpSet, Key: key(2), Col: "health", Val: 3}}, false
	case 12:
		// The population count holds, but rows shift under the view.
		return []Command{{Op: OpDespawn, Key: key(1)}, {Op: OpSpawn, Row: game.NewUnit(7002, 0, game.Archer, freeSquare(t, e))}}, true
	}
	return nil, false
}

// TestDeltaIsViewDiff: the engine keeps no copy of the previous tick's
// rows, so the delta a tick captures must be exactly what separates the
// two read views it falls between — every row whose bits differ, with
// the columns that differ, and nothing else: the commands a tick's
// commit applies are in the view it publishes, so no row a set wrote
// needs naming beyond the diff. A delta is invalid exactly on the ticks
// that change the population. Over the zoo and the battle, at Workers
// {1, 4}, maintaining and on the rebuild seam, under set, spawn, despawn
// and tune traffic.
func TestDeltaIsViewDiff(t *testing.T) {
	const units, seed, ticks = 64, 23, 14
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
				for tick := 0; tick < ticks; tick++ {
					cmds, popChange := deltaTraffic(t, e, tick)
					if len(cmds) > 0 {
						if _, err := e.SubmitSharded("t", cmds...); err != nil {
							t.Fatal(err)
						}
					}
					prev := e.ReadView()
					if err := e.Tick(); err != nil {
						t.Fatal(err)
					}
					cur := e.ReadView()
					if e.deltaOK == popChange {
						t.Fatalf("tick %d: delta valid = %v on a tick that changes the population: %v", tick, e.deltaOK, popChange)
					}
					if popChange {
						continue
					}
					masks := make([]uint64, cur.env.Len())
					for i, row := range cur.env.Rows {
						for col, v := range row {
							if math.Float64bits(v) != math.Float64bits(prev.env.Rows[i][col]) {
								masks[i] |= exec.ColBit(col)
							}
						}
					}
					var want exec.Delta
					for i, m := range masks {
						if m != 0 {
							want.Dirty, want.Masks = append(want.Dirty, i), append(want.Masks, m)
						}
					}
					if !slices.Equal(e.delta.Dirty, want.Dirty) || !slices.Equal(e.delta.Masks, want.Masks) {
						t.Fatalf("tick %d: delta %v / %x, the views' diff %v / %x",
							tick, e.delta.Dirty, e.delta.Masks, want.Dirty, want.Masks)
					}
				}
				if e.Stats.CommandsApplied != 12 || e.Stats.CommandsRejected != 0 {
					t.Fatalf("%d commands applied, %d rejected; the traffic is 12 commands that all apply",
						e.Stats.CommandsApplied, e.Stats.CommandsRejected)
				}
				c.held(t, e)
			})
		}
	}
}

// An OpTune costs exactly one rebuild tick: the first tick whose
// decision reads it, the one after the commit that applies it. The tick
// whose commit applies the tune decided under the old constants and is
// maintained, and the delta the commit captures is as valid as any, so
// maintenance resumes on the tick after the rebuild.
func TestTuneRebuildsOneTick(t *testing.T) {
	e := newSentryEngine(t, 600)
	step := func() int {
		t.Helper()
		m := e.Stats.MaintainTicks
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		return e.Stats.MaintainTicks - m
	}
	if step() != 1 {
		t.Fatal("a quiet sentry tick was not maintained")
	}
	if _, err := e.SubmitSharded("ops", Command{Op: OpTune, Col: "_HEAL_AURA", Val: 5}); err != nil {
		t.Fatal(err)
	}
	if step() != 1 {
		t.Fatal("the tick whose commit applies a tune rebuilt before any decision read it")
	}
	if step() != 0 {
		t.Fatal("the first tick to read a tune maintained its indexes from the pre-tune provider")
	}
	for i := 1; i <= 2; i++ {
		if step() != 1 {
			t.Fatalf("tick %d after the rebuild rebuilt instead of maintaining", i)
		}
	}
}
