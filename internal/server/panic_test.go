package server

import (
	"bytes"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/workload"
)

// panicGame is the battle's mechanics until tick k, whose first
// ApplyEffects panics. The engine calls ApplyEffects once per unit per
// tick and the battle respawns its dead, so call (k-1)·n opens tick k.
type panicGame struct {
	engine.Game
	at    int64
	calls atomic.Int64
}

func (g *panicGame) ApplyEffects(row, effects []float64) (geom.Vec, bool) {
	if g.calls.Add(1) == g.at {
		panic("mechanics: injected fault")
	}
	return g.Game.ApplyEffects(row, effects)
}

// registerPanicking registers a serial battle world whose mechanics panic
// at tick k: serial, so the panic runs on the goroutine that drives the
// tick.
func registerPanicking(t *testing.T, reg *Registry, name string, k int64) {
	t.Helper()
	const units = 48
	prog, err := compileWorldScript("")
	if err != nil {
		t.Fatal(err)
	}
	wspec := workload.Spec{Units: units, Density: 0.05, Seed: 3}
	g := &panicGame{Game: game.NewMechanics(), at: (k-1)*units + 1}
	eng, err := engine.New(prog, g, workload.Generate(wspec), engine.Options{
		Mode: engine.Indexed, Workers: 1, Categoricals: game.Categoricals(), Seed: 3, Side: wspec.Side(), MoveSpeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.register(name, engine.NewSession(eng), prog, eng.Source(), 0, false); err != nil {
		t.Fatal(err)
	}
}

// TestPanicFailsOnlyItsWorld: a panic in a world's tick — raised on its
// clock goroutine or under a step request — fails that world alone. Its
// requests answer 503 naming its last committed tick, the failure is
// counted, it can still be deleted, and a sentinel world on the same
// registry keeps ticking to the checkpoint bytes of a standalone twin.
func TestPanicFailsOnlyItsWorld(t *testing.T) {
	ts, reg := newTestServer(t)
	registerPanicking(t, reg, "clocked", 3)
	registerPanicking(t, reg, "stepped", 2)
	spec := WorldSpec{Units: 64, Density: 0.03, Seed: 9, Mode: engine.Indexed, Tune: engine.Options{Workers: 1}}
	if _, err := reg.Create("sentinel", spec); err != nil {
		t.Fatal(err)
	}
	step := func(name string, ticks int) (int, string) {
		var e errorResponse
		code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+name+"/step", StepRequest{Ticks: ticks}, &e)
		return code, e.Error
	}

	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/clocked/run", RunRequest{TickRate: 0}, nil); code != http.StatusOK {
		t.Fatalf("run: status %d", code)
	}
	if code, msg := step("stepped", 5); code != http.StatusServiceUnavailable || !strings.Contains(msg, "failed after tick 1") {
		t.Fatalf("panicking step: %d %q, want 503 naming tick 1", code, msg)
	}
	if code, _ := step("sentinel", 5); code != http.StatusOK {
		t.Fatalf("sentinel step: status %d", code)
	}
	var e errorResponse
	deadline := time.Now().Add(10 * time.Second)
	for do(t, http.MethodGet, ts.URL+"/v1/sessions/clocked", nil, &e) != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("the clocked world never failed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(e.Error, "failed after tick 2") || !strings.Contains(e.Error, "injected fault") {
		t.Fatalf("failed world says %q, want its last tick, 2, and the panic", e.Error)
	}
	for _, name := range []string{"clocked", "stepped"} {
		if code, msg := step(name, 1); code != http.StatusServiceUnavailable || !strings.Contains(msg, "failed after tick") {
			t.Errorf("%s: step after the failure: %d %q, want 503", name, code, msg)
		}
		q := QueryRequest{Src: "aggregate Pop(u) := count(*) as n over e;"}
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/"+name+"/query", q, nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s: query after the failure: status %d, want 503", name, code)
		}
	}
	if code, _ := step("sentinel", 5); code != http.StatusOK {
		t.Fatalf("sentinel step after the failures: status %d", code)
	}
	var metrics bytes.Buffer
	reg.WritePrometheus(&metrics)
	if !strings.Contains(metrics.String(), "\nsgld_session_failures_total 2\n") {
		t.Errorf("metrics do not count two failures:\n%s", metrics.String())
	}
	for _, name := range []string{"clocked", "stepped"} {
		if code := do(t, http.MethodDelete, ts.URL+"/v1/sessions/"+name, nil, nil); code != http.StatusOK {
			t.Errorf("delete %s: status %d", name, code)
		}
	}

	twin := NewRegistry()
	defer twin.Close()
	tw, err := twin.Create("sentinel", spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Step(10); err != nil {
		t.Fatal(err)
	}
	sw, _ := reg.Get("sentinel")
	var got, want bytes.Buffer
	if err := sw.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	if err := tw.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("sentinel checkpoint (%d bytes) differs from its standalone twin's (%d bytes)", got.Len(), want.Len())
	}
}
