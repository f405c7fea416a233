package engine

import (
	"bytes"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// The legacy fixtures in testdata come from the build that last wrote
// each layout, over the battle program with Workers 4, maintenance on
// and threshold 1, so the v1–v3 maintenance counters are
// nonzero (TestUpgradeLegacyFixtures reads them from the bytes). The v3
// build wrote v3 through Checkpoint and v2 through its test-only
// versioned writer; it had no v1 writer, so v1.ckpt is a live engine's
// state encoded by hand in the layout that build's decoder read as
// version 1. The v4 build wrote its fixtures through Checkpoint, each
// next to the same run continued to tick 14 with no further input:
//
//	v1.ckpt  seed 7, tick 6: a battle world, no inputs (version 1 has none)
//	v2.ckpt  seed 9, tick 10: the scripted command scenario through tick
//	         9, tick 10's batch pending, journal uncompacted
//	v3.ckpt  seed 11, tick 10: the same scenario compacted at tick 9
//	v4.ckpt  seed 13, tick 10: the scenario through tick 9 with a
//	         four-command batch pending for tick 10 — a posx set, a
//	         despawn of a unit that does not exist (rejected at apply
//	         time), a tune, and a health set admitted through the sharded
//	         queues — journal uncompacted; v4-tick14.ckpt continues it
//	v4-compacted.ckpt  the same, compacted at tick 10 with the batch
//	         pending; v4-compacted-tick14.ckpt continues it
//	pin-zoo-global-extrema.v3.ckpt, .v4.ckpt  the tick-50 streams behind
//	         that pin
var legacyFixtures = []struct {
	file              string
	tick, base        int64
	journal, pending  int     // after the upgrade; pending is what the stream held
	applied, rejected int     // after the upgrade has applied the pending batch
	heal              float64 // _HEAL_AURA after the upgrade
	needsProgram      bool
	maintenance       bool   // the layout carries the maintenance counters
	continued         string // the writer's run continued to tick 14
}{
	{file: "v1.ckpt", tick: 6, heal: 3, needsProgram: true, maintenance: true},
	{file: "v2.ckpt", tick: 10, journal: 10, pending: 1, applied: 8, rejected: 2, heal: 5, maintenance: true},
	{file: "v3.ckpt", tick: 10, base: 9, journal: 1, pending: 1, applied: 8, rejected: 2, heal: 5, maintenance: true},
	{file: "v4.ckpt", tick: 10, journal: 13, pending: 4, applied: 10, rejected: 3, heal: 7, continued: "v4-tick14.ckpt"},
	{file: "v4-compacted.ckpt", tick: 10, base: 10, pending: 4, applied: 10, rejected: 3, heal: 7, continued: "v4-compacted-tick14.ckpt"},
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reopen opens checkpoint bytes under tune and returns the engine.
func reopen(t testing.TB, data []byte, tune Options) *Engine {
	t.Helper()
	s, err := Open(bytes.NewReader(data), game.NewMechanics(), tune)
	if err != nil {
		t.Fatal(err)
	}
	// Open consults only the public knobs; the test-only threshold
	// override is carried over by hand.
	s.Engine().opts.threshold = tune.threshold
	return s.Engine()
}

// maintenanceCounters reads MaintainTicks and DirtyRows, the two stats
// counters versions 1–3 carry after Deaths, straight from a stream's bytes.
func maintenanceCounters(t testing.TB, data []byte) (maintainTicks, dirtyRows int64) {
	t.Helper()
	cr := table.NewReader(bytes.NewReader(data))
	var magic [len(checkpointMagic)]byte
	cr.Bytes(magic[:])
	cr.U32() // version
	cr.U64() // seed
	cr.I64() // tick
	cr.U8()  // mode
	cr.U8()  // flags
	cr.F64() // side
	cr.F64() // movespeed
	for n := cr.U32(); n > 0 && cr.Err() == nil; n-- {
		cr.Str(table.MaxNameLen) // categorical attribute
	}
	for i := 0; i < 5; i++ { // Ticks … Deaths
		cr.I64()
	}
	maintainTicks, dirtyRows = cr.I64(), cr.I64()
	if err := cr.Err(); err != nil {
		t.Fatal(err)
	}
	return maintainTicks, dirtyRows
}

// upgrade rewrites legacy checkpoint bytes as the current version.
func upgrade(t testing.TB, data []byte, prog *sem.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Upgrade(bytes.NewReader(data), &buf, prog); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Open reads the current layout alone: every older one fails before
// anything is built, with an error that names the tool that rewrites it.
func TestOpenRejectsLegacyVersions(t *testing.T) {
	for _, fx := range legacyFixtures {
		_, err := Open(bytes.NewReader(readFixture(t, fx.file)), game.NewMechanics(), Options{})
		if err == nil || !strings.Contains(err.Error(), "sglc -upgrade") {
			t.Errorf("%s: Open error = %v, want one naming sglc -upgrade", fx.file, err)
		}
	}
}

// Each legacy fixture upgrades and reopens to the world it held, moved
// to version 5's boundary: the pending batch, which precedes the
// decision of the stream's own tick, is applied. The rows are the
// stream's with the batch worked through them in order — a set writes
// its column, a despawn removes its unit, and either one is rejected
// when its unit is absent — and the constants are the stream's with the
// batch's tunes. The tick, the journal (less the entries stamped at a
// nonzero base) and the counters the current layout keeps match what the
// stream decodes to, with the batch's commands counted applied or
// rejected as worked. The maintenance counters the layout drops restart
// at zero, and the reopened world checkpoints back to the upgraded bytes
// and runs on.
func TestUpgradeLegacyFixtures(t *testing.T) {
	prog := battleProg(t)
	for _, fx := range legacyFixtures {
		t.Run(fx.file, func(t *testing.T) {
			old := readFixture(t, fx.file)
			held, err := decodeCheckpoint(bytes.NewReader(old), 1)
			if err != nil {
				t.Fatal(err)
			}
			if mt, dr := maintenanceCounters(t, old); fx.maintenance && (mt == 0 || dr == 0) {
				t.Fatalf("the stream carries maintenance counters %d/%d; a fixture must carry nonzero ones for the upgrade to drop", mt, dr)
			}
			if len(held.pending) != fx.pending {
				t.Fatalf("the stream holds %d pending commands, want %d", len(held.pending), fx.pending)
			}
			up := upgrade(t, old, prog)
			if v := up[len(checkpointMagic)]; v != CheckpointVersion {
				t.Fatalf("upgraded stream has version %d", v)
			}
			if again := upgrade(t, up, nil); !bytes.Equal(again, up) {
				t.Error("upgrading a current stream is not the identity")
			}
			e := reopen(t, up, Options{Workers: 4})

			if e.TickCount() != fx.tick || e.JournalBase() != fx.base ||
				len(e.Journal()) != fx.journal || len(e.Pending()) != 0 ||
				e.Stats.CommandsApplied != fx.applied || e.Stats.CommandsRejected != fx.rejected {
				t.Fatalf("reopened at tick %d base %d, journal %d, pending %d, commands %d/%d; want %+v and nothing pending",
					e.TickCount(), e.JournalBase(), len(e.Journal()), len(e.Pending()),
					e.Stats.CommandsApplied, e.Stats.CommandsRejected, fx)
			}
			kc := e.prog.Schema.KeyCol()
			wantRows := map[int64][]float64{}
			for _, row := range held.env.Rows {
				wantRows[int64(row[kc])] = slices.Clone(row)
			}
			wantConsts := maps.Clone(held.consts)
			if fx.needsProgram {
				wantConsts = maps.Clone(prog.Consts)
			}
			var applied, rejected int
			for _, sc := range held.pending {
				row, ok := wantRows[sc.Cmd.Key]
				switch sc.Cmd.Op {
				case OpSet:
					if ok {
						col, known := e.prog.Schema.Col(sc.Cmd.Col)
						if !known {
							t.Fatalf("pending set names unknown column %q", sc.Cmd.Col)
						}
						row[col] = sc.Cmd.Val
					}
				case OpDespawn:
					delete(wantRows, sc.Cmd.Key)
				case OpTune:
					ok = true
					wantConsts[sc.Cmd.Col] = sc.Cmd.Val
				default:
					t.Fatalf("pending %v: the fixtures hold no spawns, and this check does not model one", sc.Cmd.Op)
				}
				if ok {
					applied++
				} else {
					rejected++
				}
			}
			if e.Env().Len() != len(wantRows) {
				t.Fatalf("%d rows after the upgrade, want %d", e.Env().Len(), len(wantRows))
			}
			for key, want := range wantRows {
				var got []float64
				if i := e.rowIndexByKey(key); i >= 0 {
					got = e.env.Rows[i]
				}
				if got == nil || !slices.EqualFunc(got, want, func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("unit %d = %v, want the stream's row with the pending batch applied, %v", key, got, want)
				}
			}
			wantJournal := slices.DeleteFunc(slices.Clone(held.journal), func(sc StampedCommand) bool {
				return fx.base > 0 && sc.Tick <= fx.base
			})
			if !reflect.DeepEqual(wantJournal, e.Journal()) && len(wantJournal)+len(e.Journal()) > 0 {
				t.Error("journal differs from the stream's tail past its base")
			}
			for name, v := range wantConsts {
				if got := e.prog.Consts[name]; math.Float64bits(got) != math.Float64bits(v) {
					t.Errorf("constant %s = %v, want %v", name, got, v)
				}
			}
			if heal := e.prog.Consts["_HEAL_AURA"]; heal != fx.heal {
				t.Errorf("_HEAL_AURA = %v, want %v", heal, fx.heal)
			}
			got := [7]int64{int64(e.Stats.Ticks), int64(e.Stats.EffectsApplied), int64(e.Stats.Moves),
				int64(e.Stats.MovesBlocked), int64(e.Stats.Deaths),
				int64(e.Stats.CommandsApplied), int64(e.Stats.CommandsRejected)}
			want := held.counters
			want[5] += int64(applied)
			want[6] += int64(rejected)
			if got != want || held.counters[0] != fx.tick || int(want[5]) != fx.applied || int(want[6]) != fx.rejected {
				t.Errorf("counters %v, want %v: the stream's %v with the pending batch's %d applied and %d rejected",
					got, want, held.counters, applied, rejected)
			}
			if e.Stats.MaintainTicks != 0 || e.Stats.DirtyRows != 0 {
				t.Errorf("maintenance counters %d/%d survived the upgrade", e.Stats.MaintainTicks, e.Stats.DirtyRows)
			}
			var back bytes.Buffer
			if err := e.Checkpoint(&back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.Bytes(), up) {
				t.Error("the reopened world does not checkpoint back to the upgraded bytes")
			}
			if err := e.Run(3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// An upgraded version-4 stream continues exactly as the build that wrote
// it did: reopened and run to tick 14, it checkpoints to the bytes of
// that build's own tick-14 stream, upgraded — at Workers {1, 4}.
// The pending batch (a rejection, a tune and a sharded admission among
// it) preceded tick 10's decision there and must precede it here, so a
// batch applied one decision late, or dropped, shows as a different
// world.
func TestUpgradedV4ContinuesLikeItsWriter(t *testing.T) {
	for _, fx := range legacyFixtures {
		if fx.continued == "" {
			continue
		}
		t.Run(fx.file, func(t *testing.T) {
			want := upgrade(t, readFixture(t, fx.continued), nil)
			up := upgrade(t, readFixture(t, fx.file), nil)
			for _, w := range restoreWorkers {
				e := reopen(t, up, Options{Workers: w, threshold: 1})
				if err := e.Run(int(14 - fx.tick)); err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := e.Checkpoint(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("w=%d: the upgraded stream's continuation differs from its writer's", w)
				}
			}
		})
	}
}

// A version-1 stream has no script of its own: Upgrade needs the program
// it ran, and refuses one over another schema before writing a byte.
func TestUpgradeV1NeedsItsProgram(t *testing.T) {
	v1 := readFixture(t, "v1.ckpt")
	var out bytes.Buffer
	if err := Upgrade(bytes.NewReader(v1), &out, nil); err == nil || !strings.Contains(err.Error(), "program") {
		t.Fatalf("Upgrade(v1, nil) = %v, want an error asking for the program", err)
	}
	otherSchema := table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "damage", Kind: table.Sum},
	)
	otherProg, err := sem.Check(mustParse(t, `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, 1) }`), otherSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Upgrade(bytes.NewReader(v1), &out, otherProg); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not detected: %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a refused upgrade wrote %d bytes", out.Len())
	}
}

// The streams a pinned world wrote at tick 50 in the previous layouts
// upgrade to exactly the bytes this build writes for the same world —
// the pins moved only by the format: the counters version 4 stopped
// carrying, and version 5's tag.
func TestUpgradeMatchesPin(t *testing.T) {
	const name = "global-extrema"
	e := newEngine(t, compileZoo(t, zooSrc(t, name)), 64, Indexed, 42, func(o *Options) { o.Workers = 1 })
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := e.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"v3", "v4"} {
		if got := upgrade(t, readFixture(t, "pin-zoo-"+name+"."+v+".ckpt"), nil); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("the upgraded tick-50 %s stream differs from this build's", v)
		}
	}
}

// TestCheckpointBytesIgnoreExecutionKnobs: the checkpoint of a world is a
// function of the world alone. For every zoo program and the battle, the
// stream at tick 20 is byte-identical across Workers {1, 4} × maintenance
// {never, default threshold, threshold 1} — including the runs where
// maintenance engages, which version 3 recorded in its counters.
func TestCheckpointBytesIgnoreExecutionKnobs(t *testing.T) {
	const ticks = 20
	mk := func(name string, prog *sem.Program, n int) {
		t.Run(name, func(t *testing.T) {
			var want []byte
			maintained := false
			for _, w := range []int{1, 4} {
				for _, th := range []float64{neverMaintain, 0, 1} {
					e := newEngine(t, prog, n, Indexed, 7, func(o *Options) {
						o.Workers, o.threshold = w, th
					})
					if err := e.Run(ticks); err != nil {
						t.Fatal(err)
					}
					maintained = maintained || e.Stats.MaintainTicks > 0
					var buf bytes.Buffer
					if err := e.Checkpoint(&buf); err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = buf.Bytes()
					} else if !bytes.Equal(want, buf.Bytes()) {
						t.Fatalf("w=%d threshold=%v: checkpoint bytes differ from w=1 never maintaining", w, th)
					}
				}
			}
			if name == "battle-sim" && !maintained {
				t.Error("maintenance never engaged, so the test proves nothing about it")
			}
		})
	}
	for _, zp := range exec.Zoo {
		mk(zp.Name, compileZoo(t, zp.Src), 64)
	}
	mk("battle-sim", battleProg(t), 90)
}
