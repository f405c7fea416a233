package sgl

import (
	"bytes"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/workload"
)

func TestCompileBattleAndPlan(t *testing.T) {
	prog, err := CompileBattle()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompilePlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain()
	for _, want := range []string{"act⊕", "σ", "π", "E"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan missing %q", want)
		}
	}
}

func TestCompileScriptErrorsSurface(t *testing.T) {
	if _, err := CompileScript("function main(u) { perform Nope(u) }", BattleSchema(), BattleConsts()); err == nil {
		t.Fatal("expected semantic error")
	}
	if _, err := CompileScript("function main(u) {", BattleSchema(), nil); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestNewSchemaThroughFacade(t *testing.T) {
	s, err := NewSchema(
		Attr{Name: "key", Kind: Const},
		Attr{Name: "posx", Kind: Const},
		Attr{Name: "posy", Kind: Const},
		Attr{Name: "damage", Kind: Sum},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s, 1)
	tbl.Append([]float64{1, 0, 0, 0})
	if tbl.Len() != 1 {
		t.Fatal("table append failed")
	}
}

func TestBattleEngineEndToEnd(t *testing.T) {
	prog, err := CompileBattle()
	if err != nil {
		t.Fatal(err)
	}
	spec := ArmySpec{Units: 80, Density: 0.02, Seed: 5, Formation: workload.BattleLines}
	eng, err := NewBattleEngine(prog, spec, Indexed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(15); err != nil {
		t.Fatal(err)
	}
	if eng.Env().Len() != 80 {
		t.Fatalf("population = %d", eng.Env().Len())
	}
	if eng.Stats.Moves == 0 {
		t.Fatal("nothing moved")
	}
}

func TestBattleScriptConstant(t *testing.T) {
	if !strings.Contains(BattleScript, "aggregate CountEnemiesInSight") {
		t.Fatal("BattleScript should expose the case-study source")
	}
}

// NewBattleEngineOpts must honor caller execution knobs that the legacy
// constructor pinned, without changing outcomes.
func TestNewBattleEngineOptsKeepsCallerControl(t *testing.T) {
	prog, err := CompileBattle()
	if err != nil {
		t.Fatal(err)
	}
	spec := ArmySpec{Units: 60, Density: 0.02, Seed: 9, Formation: workload.BattleLines}
	legacy, err := NewBattleEngine(prog, spec, Indexed, 9)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := NewBattleEngineOpts(prog, spec, EngineOptions{
		Mode: Indexed, Seed: 9,
		Workers:     4,
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Workers() != 4 {
		t.Fatalf("Workers dropped: %d", tuned.Workers())
	}
	if err := legacy.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := tuned.Run(10); err != nil {
		t.Fatal(err)
	}
	if !legacy.Env().EqualContents(tuned.Env()) {
		t.Fatal("execution knobs changed outcomes")
	}
	if tuned.Stats.MaintainTicks == 0 {
		t.Fatal("Incremental option dropped: maintenance never engaged")
	}
}

// The session lifecycle through the public facade: step, observe,
// checkpoint, restore, and continue identically.
func TestSessionFacadeEndToEnd(t *testing.T) {
	prog, err := CompileBattle()
	if err != nil {
		t.Fatal(err)
	}
	spec := ArmySpec{Units: 80, Density: 0.02, Seed: 5, Formation: workload.BattleLines}
	mk := func() *Session {
		eng, err := NewBattleEngineOpts(prog, spec, EngineOptions{Mode: Indexed, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return NewSession(eng)
	}
	oracle := mk()
	if err := oracle.Step(20); err != nil {
		t.Fatal(err)
	}

	sess := mk()
	hooks := 0
	sess.OnTick(func(int64, RunStats) { hooks++ })
	if err := sess.Step(8); err != nil {
		t.Fatal(err)
	}
	if hooks != 8 {
		t.Fatalf("hook fired %d times", hooks)
	}

	q, err := CompileQuery(`
aggregate Army(u, p) := count(*) as n, sum(e.health) as hp over e where e.player = p;`,
		BattleSchema(), BattleConsts())
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Query(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 40 {
		t.Fatalf("player 0 count = %v, want 40 (resurrection keeps the population constant)", out[0])
	}

	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(&buf, NewBattleMechanics(), EngineOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Step(12); err != nil {
		t.Fatal(err)
	}
	if !oracle.Engine().Env().EqualContents(restored.Engine().Env()) {
		t.Fatal("restored session diverged from uninterrupted run")
	}
}

// Open through the public facade: tuning is honored, a truncated
// checkpoint is rejected.
func TestOpenFacade(t *testing.T) {
	prog, err := CompileBattle()
	if err != nil {
		t.Fatal(err)
	}
	spec := ArmySpec{Units: 48, Density: 0.02, Seed: 3, Formation: workload.BattleLines}
	eng, err := NewBattleEngine(prog, spec, Indexed, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	tuned, err := Open(bytes.NewReader(data), NewBattleMechanics(), EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Engine().Workers() != 2 {
		t.Fatalf("tuning dropped: workers = %d", tuned.Engine().Workers())
	}
	if _, err := Open(bytes.NewReader(data[:30]), NewBattleMechanics(), EngineOptions{}); err == nil {
		t.Fatal("truncated checkpoint opened")
	}
}
