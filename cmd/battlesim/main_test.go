package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/workload"
)

func baseConfig() config {
	return config{
		units:     80,
		ticks:     20,
		mode:      engine.Indexed,
		density:   0.02,
		seed:      7,
		formation: workload.BattleLines,
	}
}

// finalEnv re-runs the straight simulation to read its end state.
func finalEnv(t *testing.T, ticks int) *engine.Engine {
	t.Helper()
	prog, err := game.Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	spec := workload.Spec{Units: cfg.units, Density: cfg.density, Seed: cfg.seed, Formation: cfg.formation}
	e, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
		Mode:         cfg.mode,
		Categoricals: game.Categoricals(),
		Seed:         cfg.seed,
		Side:         spec.Side(),
		MoveSpeed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	return e
}

// The end-to-end smoke for -checkpoint/-resume: a run checkpointed
// halfway and resumed must report exactly the death/move counters — and
// reach exactly the environment — of the straight run.
func TestCheckpointResumeSmoke(t *testing.T) {
	straight := finalEnv(t, 20)

	ckpt := filepath.Join(t.TempDir(), "world.ckpt")
	var out bytes.Buffer

	first := baseConfig()
	first.ticks = 11
	first.checkpoint = ckpt
	first.checkEvery = 4 // several mid-run checkpoints; the last write wins
	first.report = 0
	if err := run(first, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpoint: tick 11") {
		t.Fatalf("missing final checkpoint line in output:\n%s", out.String())
	}

	second := baseConfig()
	second.ticks = 9
	second.resume = ckpt
	second.workers = 4 // resume under different parallelism: still identical
	second.report = 0
	out.Reset()
	if err := run(second, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resumed 80 units at tick 11") {
		t.Fatalf("missing resume line in output:\n%s", out.String())
	}

	// Reload the checkpoint the resumed run started from and replay it to
	// compare states and counters against the straight run.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sess, err := engine.Open(f, game.NewMechanics(), engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resumed := sess.Engine()
	if err := resumed.Run(9); err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.Deaths != straight.Stats.Deaths || resumed.Stats.Moves != straight.Stats.Moves {
		t.Fatalf("resumed counters deaths=%d moves=%d, straight run deaths=%d moves=%d",
			resumed.Stats.Deaths, resumed.Stats.Moves, straight.Stats.Deaths, straight.Stats.Moves)
	}
	a, b := straight.Env(), resumed.Env()
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][c]) != math.Float64bits(b.Rows[i][c]) {
				t.Fatalf("row %d col %d differs: resumed run not byte-identical", i, c)
			}
		}
	}
}

// A fresh run with no checkpoint flags still works through the session
// path (regression for the main-loop refactor).
func TestPlainRun(t *testing.T) {
	cfg := baseConfig()
	cfg.report = 10
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"80 units", "total:", "index work:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, out.String())
		}
	}
}

// Resuming from a missing or corrupt file fails cleanly.
func TestResumeErrors(t *testing.T) {
	cfg := baseConfig()
	cfg.resume = filepath.Join(t.TempDir(), "nope.ckpt")
	if err := run(cfg, &bytes.Buffer{}); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// The -commands smoke: a scripted input file drives spawns, despawns,
// sets and tunes through the exact code path users run, the summary
// reports them, and the world reflects them (population back to the
// start after the spawn/despawn pair, one deterministic rejection from
// the bogus despawn).
func TestScriptedCommandsSmoke(t *testing.T) {
	dir := t.TempDir()
	cmds := filepath.Join(dir, "input.txt")
	const file = `
# scripted inputs for the smoke test
2 set 5 health 9
4 spawn 9001 0 1 40 40
6 despawn 9001
6 despawn 424242
8 tune _HEAL_AURA 5
`
	if err := os.WriteFile(cmds, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "world.ckpt")
	cfg := baseConfig()
	cfg.commands = cmds
	cfg.checkpoint = ckpt
	cfg.report = 0
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "commands: 4 applied, 1 rejected, 0 pending") {
		t.Fatalf("missing/incorrect command summary:\n%s", out.String())
	}

	// The checkpoint is self-contained: Open it and verify the journal
	// and the tuned constant came along.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sess, err := engine.Open(f, game.NewMechanics(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sess.Journal()); got != 5 {
		t.Fatalf("journal entries = %d, want 5", got)
	}
	if v := sess.Engine().Program().Consts["_HEAL_AURA"]; v != 5 {
		t.Fatalf("tuned const = %v, want 5", v)
	}
	if sess.Engine().Env().Len() != 80 {
		t.Fatalf("population = %d, want 80", sess.Engine().Env().Len())
	}
}

// Command files that cannot be parsed, or that name ticks already in the
// past, fail loudly before the run starts.
func TestScriptedCommandsErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(content string) string {
		t.Helper()
		p := filepath.Join(dir, "bad.txt")
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ name, content, want string }{
		{"bad-op", "1 explode 5", "unknown or malformed"},
		{"bad-tick", "x set 5 health 1", "bad tick"},
		{"tick-only", "7", "missing command"},
		{"short-spawn", "1 spawn 9", "unknown or malformed"},
		{"bad-unittype", "1 spawn 9 0 7 4 4", "spawn wants"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			cfg.commands = write(tc.content)
			err := run(cfg, &bytes.Buffer{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// A syntactically fine file whose column fails engine validation.
	cfg := baseConfig()
	cfg.commands = write("1 set 5 nosuch 1")
	if err := run(cfg, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "no column") {
		t.Fatalf("err = %v, want engine validation error", err)
	}
}

// A -resume run may reuse the exact -commands file that drove the
// earlier segment: entries behind the resumed tick are skipped (they
// already live in the checkpoint's journal), later ones still apply.
func TestScriptedCommandsResumeSameFile(t *testing.T) {
	dir := t.TempDir()
	cmds := filepath.Join(dir, "input.txt")
	if err := os.WriteFile(cmds, []byte("2 set 5 health 9\n25 tune _HEAL_AURA 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, "world.ckpt")

	first := baseConfig()
	first.commands = cmds
	first.checkpoint = ckpt
	first.report = 0
	if err := run(first, &bytes.Buffer{}); err != nil { // runs ticks 0–20: only the tick-2 entry applies
		t.Fatal(err)
	}

	second := baseConfig()
	second.ticks = 10
	second.resume = ckpt
	second.commands = cmds
	second.report = 0
	var out bytes.Buffer
	if err := run(second, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "skipping 1 entries at ticks before 20") {
		t.Fatalf("missing skip notice:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "commands: 2 applied") { // tick-2 (from journal) + tick-25 entry
		t.Fatalf("tick-25 entry did not apply on resume:\n%s", out.String())
	}
}
