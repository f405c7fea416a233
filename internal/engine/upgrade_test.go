package engine

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// The legacy fixtures in testdata come from the build that last read each
// layout, over the battle program with Workers 4, Incremental on and
// IncrementalThreshold 1, so their maintenance counters are nonzero
// (TestUpgradeLegacyFixtures reads them from the bytes). That build wrote
// v3 through Checkpoint and v2 through its test-only versioned writer; it
// had no v1 writer, so v1.ckpt is a live engine's state encoded by hand in
// the layout that build's decoder read as version 1:
//
//	v1.ckpt  seed 7, tick 6: a battle world, no inputs (version 1 has none)
//	v2.ckpt  seed 9, tick 10: the scripted command scenario through tick
//	         9, tick 10's batch pending, journal uncompacted
//	v3.ckpt  seed 11, tick 10: the same scenario compacted at tick 9
//	pin-zoo-global-extrema.v3.ckpt  the tick-50 stream behind that pin
var legacyFixtures = []struct {
	file                  string
	tick, base            int64
	journal, pending      int
	applied, rejected     int
	needsProgram, retuned bool
}{
	{file: "v1.ckpt", tick: 6, needsProgram: true},
	{file: "v2.ckpt", tick: 10, journal: 10, pending: 1, applied: 7, rejected: 2, retuned: true},
	{file: "v3.ckpt", tick: 10, base: 9, journal: 1, pending: 1, applied: 7, rejected: 2, retuned: true},
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

// Each legacy fixture upgrades and reopens to the world it held: the
// rows, tick, journal (and its base), pending buffer, constants and the
// counters the current layout keeps all match what the stream decodes
// to, the maintenance counters it drops restart at zero, and the
// reopened world checkpoints back to the upgraded bytes and runs on.
func TestUpgradeLegacyFixtures(t *testing.T) {
	prog := battleProg(t)
	for _, fx := range legacyFixtures {
		t.Run(fx.file, func(t *testing.T) {
			old := readFixture(t, fx.file)
			held, err := decodeCheckpoint(bytes.NewReader(old), 1)
			if err != nil {
				t.Fatal(err)
			}
			if mt, dr := maintenanceCounters(t, old); mt == 0 || dr == 0 {
				t.Fatalf("the stream carries maintenance counters %d/%d; a fixture must carry nonzero ones for the upgrade to drop", mt, dr)
			}
			up := upgrade(t, old, prog)
			if v := up[len(checkpointMagic)]; v != CheckpointVersion {
				t.Fatalf("upgraded stream has version %d", v)
			}
			if again := upgrade(t, up, nil); !bytes.Equal(again, up) {
				t.Error("upgrading a current stream is not the identity")
			}
			e := reopen(t, up, Options{Workers: 4, Incremental: true})

			if e.TickCount() != fx.tick || e.JournalBase() != fx.base ||
				len(e.Journal()) != fx.journal || len(e.Pending()) != fx.pending ||
				e.Stats.CommandsApplied != fx.applied || e.Stats.CommandsRejected != fx.rejected {
				t.Fatalf("reopened at tick %d base %d, journal %d, pending %d, commands %d/%d; want %+v",
					e.TickCount(), e.JournalBase(), len(e.Journal()), len(e.Pending()),
					e.Stats.CommandsApplied, e.Stats.CommandsRejected, fx)
			}
			if !identicalTables(held.env, e.Env()) {
				t.Error("rows differ from the stream's")
			}
			if !reflect.DeepEqual(held.journal, e.Journal()) && len(held.journal)+len(e.Journal()) > 0 {
				t.Error("journal differs from the stream's")
			}
			if !reflect.DeepEqual(held.pending, e.Pending()) && len(held.pending)+len(e.Pending()) > 0 {
				t.Error("pending buffer differs from the stream's")
			}
			wantConsts := held.consts
			if fx.needsProgram {
				wantConsts = prog.Consts
			}
			for name, v := range wantConsts {
				if got, _ := e.ConstValue(name); math.Float64bits(got) != math.Float64bits(v) {
					t.Errorf("constant %s = %v, want %v", name, got, v)
				}
			}
			if heal, _ := e.ConstValue("_HEAL_AURA"); fx.retuned != (heal == 5) {
				t.Errorf("_HEAL_AURA = %v; the scenario's tune should show exactly when the stream holds it", heal)
			}
			got := [7]int64{int64(e.Stats.Ticks), int64(e.Stats.EffectsApplied), int64(e.Stats.Moves),
				int64(e.Stats.MovesBlocked), int64(e.Stats.Deaths),
				int64(e.Stats.CommandsApplied), int64(e.Stats.CommandsRejected)}
			if got != held.counters || held.counters[0] != fx.tick {
				t.Errorf("counters %v, stream held %v", got, held.counters)
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

// The stream a pinned world wrote at tick 50 in the previous layout
// upgrades to exactly the bytes this build writes for the same world —
// the pins moved only by the two counters the format no longer carries.
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
	if got := upgrade(t, readFixture(t, "pin-zoo-"+name+".v3.ckpt"), nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatal("the upgraded tick-50 stream differs from this build's")
	}
}

// TestCheckpointBytesIgnoreExecutionKnobs: the checkpoint of a world is a
// function of the world alone. For every zoo program and the battle, the
// stream at tick 20 is byte-identical across Workers {1, 4} × Incremental
// {off, on} × IncrementalThreshold {default, 1} — including the runs
// where maintenance engages, which version 3 recorded in its counters.
func TestCheckpointBytesIgnoreExecutionKnobs(t *testing.T) {
	const ticks = 20
	mk := func(name string, prog *sem.Program, n int) {
		t.Run(name, func(t *testing.T) {
			var want []byte
			maintained := false
			for _, w := range []int{1, 4} {
				for _, inc := range []bool{false, true} {
					for _, th := range []float64{0, 1} {
						e := newEngine(t, prog, n, Indexed, 7, func(o *Options) {
							o.Workers, o.Incremental, o.IncrementalThreshold = w, inc, th
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
							t.Fatalf("w=%d inc=%v threshold=%v: checkpoint bytes differ from w=1 inc=false", w, inc, th)
						}
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
