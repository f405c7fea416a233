package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// TestServedMatchesStandalone is the fourth exactness contract:
// served ≡ standalone. A world hosted by the daemon and stepped over
// HTTP while spectator goroutines hammer it with observation queries
// must produce a checkpoint byte-identical to the same (script, spec,
// seed, ticks) run as a plain engine with nobody watching. Spectators
// are pure readers of the frozen snapshot — if one ever perturbed the
// world (a stray write through a fork, a query-cache invalidation bug,
// an RNG draw charged to the wrong counter), the checkpoint bytes would
// diverge.
//
// It runs the battle script plus every zoo program, at the served
// world's own Workers/Incremental tuning differing from the standalone
// run's — stacking contract #4 on contracts #1 and #2. All the worlds
// share one daemon: the script subtests run in parallel, each stepping
// and spectating its own world while the others are hosted beside it,
// so a world that leaked into a neighbour would diverge from its twin.
// Once every subtest is done, each world is deleted and the daemon must
// have created exactly one world per script and hold none.
func TestServedMatchesStandalone(t *testing.T) {
	const (
		units   = 300
		density = 0.02
		seed    = 99
		ticks   = 24
	)

	scripts := []struct{ name, src string }{{"battle", game.Script}}
	for _, z := range exec.Zoo {
		scripts = append(scripts, struct{ name, src string }{z.Name, z.Src})
	}

	ts, reg := newTestServer(t)
	var (
		mu      sync.Mutex
		created []string
	)
	// Cleanup runs after the parallel subtests finish, and before the
	// server's own cleanup closes it.
	t.Cleanup(func() {
		if got := len(reg.List()); got != len(created) {
			t.Errorf("daemon hosts %d worlds after %d subtests created one each", got, len(created))
		}
		for _, name := range created {
			if code, err := try(http.MethodDelete, ts.URL+"/v1/sessions/"+name, nil, nil); err != nil || code != http.StatusOK {
				t.Errorf("delete %s: status %d, %v", name, code, err)
			}
		}
		if v := reg.Metrics.Counter("sgld_sessions_created_total").Value(); v != float64(len(created)) {
			t.Errorf("sgld_sessions_created_total = %v, want %d", v, len(created))
		}
		if got := reg.List(); len(got) != 0 {
			t.Errorf("%d worlds left after deleting every one", len(got))
		}
	})

	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			// Standalone: plain engine, serial, rebuild-every-tick.
			standalone := runStandalone(t, sc.src, units, density, seed, ticks)

			// Served: same world hosted by the shared daemon under
			// spectator load, with the tuning knobs deliberately
			// different.
			mu.Lock()
			created = append(created, sc.name)
			mu.Unlock()
			served := runServed(t, ts.URL, sc.name, sc.src, units, density, seed, ticks)

			if !bytes.Equal(standalone, served) {
				t.Errorf("%s: served checkpoint differs from standalone (contract #4 violated)", sc.name)
			}
		})
	}
}

// runStandalone runs (script, spec, seed, ticks) as a bare engine and
// returns its checkpoint bytes.
func runStandalone(t *testing.T, src string, units int, density float64, seed uint64, ticks int) []byte {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(script, game.Schema(), game.Consts())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Units: units, Density: density, Seed: seed, Formation: workload.BattleLines}
	e, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
		Mode:         engine.Indexed,
		Categoricals: game.Categoricals(),
		Seed:         seed,
		Side:         spec.Side(),
		MoveSpeed:    1,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runServed hosts the same world as session name on the daemon at base,
// steps it to the same tick while concurrent spectators query it
// continuously, and returns the streamed checkpoint bytes.
func runServed(t *testing.T, base, name, src string, units int, density float64, seed uint64, ticks int) []byte {
	t.Helper()
	var st Status
	code := do(t, http.MethodPost, base+"/v1/sessions", CreateRequest{
		Name: name, Script: src,
		Units: units, Density: density, Seed: seed,
		Workers: 4, Incremental: false,
	}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create served world: %d", code)
	}

	// Spectators: three query shapes across the three probe forms, all
	// legal for every zoo script (they reference only shared attributes).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	spectate := func(req QueryRequest) {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r := req
			if r.X != nil {
				x, y := float64((5*i)%60), float64((11*i)%60)
				r.X, r.Y = &x, &y
			}
			// Response intentionally ignored: some ticks race a unit's
			// death (QueryUnit on a respawned key is still valid — keys
			// persist), and the contract under test is that NONE of this
			// affects the world. Transport failures still surface (via
			// try — do would t.Fatal off the test goroutine).
			if _, err := try(http.MethodPost, base+"/v1/sessions/"+name+"/query", r, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}
	x0, y0 := 10.0, 10.0
	unit := int64(3)
	reqs := []QueryRequest{
		{Src: `aggregate Pop(u) := count(*) as n, sum(e.health) as hp over e;`},
		{Src: `aggregate Zone(u, r) :=
  count(*) over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`,
			X: &x0, Y: &y0, Args: []float64{12}},
		{Src: `aggregate Mine(u) := count(*), max(e.health) as top over e where e.player = u.player;`,
			Unit: &unit},
		{Src: `aggregate Pop(u) := count(*) as n, sum(e.health) as hp over e;`, Scan: true},
	}
	for _, r := range reqs {
		wg.Add(1)
		go spectate(r)
	}

	// Step to the target tick in small increments so queries interleave
	// with many write phases, not just one.
	for done := 0; done < ticks; {
		n := 3
		if ticks-done < n {
			n = ticks - done
		}
		if code := do(t, http.MethodPost, base+"/v1/sessions/"+name+"/step", StepRequest{Ticks: n}, nil); code != http.StatusOK {
			t.Fatalf("step: %d", code)
		}
		done += n
	}
	close(stop)
	wg.Wait()

	return fetchCheckpoint(t, base, name)
}

// TestServedIncrementalMatchesStandalone re-runs the battle leg of the
// contract with the served world under incremental maintenance at two
// workers, against a standalone twin that rebuilds every index serially:
// the checkpoint carries nothing of how indexes were kept, so only the
// world can differ.
func TestServedIncrementalMatchesStandalone(t *testing.T) {
	const (
		units   = 300
		density = 0.02
		seed    = 5
		ticks   = 18
	)
	script, err := parser.Parse(game.Script)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(script, game.Schema(), game.Consts())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Spec{Units: units, Density: density, Seed: seed, Formation: workload.BattleLines}
	e, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
		Mode: engine.Indexed, Categoricals: game.Categoricals(),
		Seed: seed, Side: spec.Side(), MoveSpeed: 1,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	var standalone bytes.Buffer
	if err := e.Checkpoint(&standalone); err != nil {
		t.Fatal(err)
	}

	ts, _ := newTestServer(t)
	if code := do(t, http.MethodPost, ts.URL+"/v1/sessions", CreateRequest{
		Name: "inc", Units: units, Density: density, Seed: seed,
		Workers: 2, Incremental: true,
	}, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := try(http.MethodPost, ts.URL+"/v1/sessions/inc/query",
				QueryRequest{Src: `aggregate Pop(u) := count(*) over e;`}, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for done := 0; done < ticks; done += 2 {
		if code := do(t, http.MethodPost, ts.URL+"/v1/sessions/inc/step", StepRequest{Ticks: 2}, nil); code != http.StatusOK {
			t.Fatalf("step: %d", code)
		}
	}
	close(stop)
	wg.Wait()

	if served := fetchCheckpoint(t, ts.URL, "inc"); !bytes.Equal(standalone.Bytes(), served) {
		t.Error("served-under-load incremental world diverged from the standalone rebuilding run")
	}
}

// TestQueryPairsAgreeAtEqualTick is the served face of the read view: a
// response's tick names the committed state its values were computed on.
// Against a free-running clock, spectators fire the indexed and the scan
// form of the same probe concurrently; whenever two responses — from any
// spectator, either evaluator — carry the same tick, their values must be
// bit-identical. A query evaluated on one tick and labelled with another
// (the failure a lock-free read path invites) shows up as a disagreement
// within a tick's group. The outputs are a count and two extrema, exact
// in any fold order, so indexed ≡ scan holds bitwise.
func TestQueryPairsAgreeAtEqualTick(t *testing.T) {
	const spectators, pairsEach = 4, 40
	ts, _ := newTestServer(t)
	create(t, ts.URL, "pairs", func(r *CreateRequest) { r.Units, r.Seed = 300, 31 })
	base := ts.URL + "/v1/sessions/pairs"
	if code := do(t, http.MethodPost, base+"/run", RunRequest{}, nil); code != http.StatusOK {
		t.Fatalf("run: %d", code)
	}

	const src = `
aggregate Near(u, r) :=
  count(*) as n, max(e.posx) as east, min(e.posy) as south
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`
	x, y, unit := 40.0, 35.0, int64(5)
	forms := []QueryRequest{
		{Src: src, X: &x, Y: &y, Args: []float64{30}},
		{Src: src, Unit: &unit, Args: []float64{30}},
	}

	type seenKey struct {
		form int
		tick int64
	}
	var mu sync.Mutex
	seen := map[seenKey][]float64{}
	ticks := map[int64]bool{}
	compared := 0
	record := func(form int, r QueryResponse) error {
		mu.Lock()
		defer mu.Unlock()
		ticks[r.Tick] = true
		k := seenKey{form, r.Tick}
		first, ok := seen[k]
		if !ok {
			seen[k] = r.Values
			return nil
		}
		compared++
		if !sameValues(first, r.Values) {
			return fmt.Errorf("form %d at tick %d: %v vs %v", form, r.Tick, first, r.Values)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2*spectators)
	for g := 0; g < spectators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pairsEach; i++ {
				form := (g + i) % len(forms)
				var pair sync.WaitGroup
				for _, scan := range []bool{false, true} {
					pair.Add(1)
					go func(scan bool) {
						defer pair.Done()
						req := forms[form]
						req.Scan = scan
						var resp QueryResponse
						code, err := try(http.MethodPost, base+"/query", req, &resp)
						if err == nil && code != http.StatusOK {
							err = fmt.Errorf("query: status %d", code)
						}
						if err == nil {
							err = record(form, resp)
						}
						if err != nil {
							select {
							case errs <- err:
							default:
							}
						}
					}(scan)
				}
				pair.Wait()
			}
		}(g)
	}
	wg.Wait()
	if code := do(t, http.MethodPost, base+"/stop", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("stop: %d", code)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if compared == 0 || len(ticks) < 2 {
		t.Fatalf("%d same-tick comparisons over %d distinct ticks: the spectators never exercised the clock", compared, len(ticks))
	}
}
