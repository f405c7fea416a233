package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"github.com/epicscale/sgl"
	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/server"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

// The per-layer run. The workload's world is rebuilt in this process and
// each package is timed through its public functions, layer by layer,
// with spans around every call. Layer names are the repo's packages.
// Nothing here is gated: the numbers say where an end-to-end move came
// from (README.md maps each to the end-to-end metric it should move).

// layerRun carries one traced run's state.
type layerRun struct {
	spec   workloadSpec
	seed   uint64
	budget time.Duration
	tr     *tracer
	out    map[string]metric
}

func (l *layerRun) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// timed runs fn under a span and returns its duration in ms.
func (l *layerRun) timed(name string, parent int, req int64, fn func()) float64 {
	id := l.tr.begin(name, parent, req)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	l.tr.end(id)
	return float64(d.Nanoseconds()) / 1e6
}

// runLayers measures every per-layer metric on the workload's world. The
// phases are time-boxed as shares of budget so the whole run scales with
// -seconds.
func runLayers(spec workloadSpec, seed uint64, budget time.Duration) (map[string]metric, *tracer, error) {
	l := &layerRun{spec: spec, seed: seed, budget: budget, tr: newTracer(), out: map[string]metric{}}
	steps := []func() error{l.setup, l.ticks, l.queries, l.answers, l.checkpoint, l.serverLayer, l.clusterLayer}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return l.out, l.tr, nil
}

// setup times what a create request spends before the first tick:
// compiling the script (sgl) and generating the army (workload).
func (l *layerRun) setup() error {
	w := l.spec.World
	var compile, generate []float64
	var cerr error
	for i := 0; i < 5; i++ {
		compile = append(compile, l.timed("sgl.compile", 0, int64(i), func() {
			prog, err := sgl.CompileScript(w.source(), sgl.BattleSchema(), sgl.BattleConsts())
			if err == nil {
				_, err = sgl.CompilePlan(prog)
			}
			cerr = err
		}))
		if cerr != nil {
			return cerr
		}
		generate = append(generate, l.timed("workload.generate", 0, int64(i), func() {
			workload.Generate(w.armySpec(l.seed))
		}))
	}
	l.set("sgl.compile_ms", median(compile), "ms")
	l.set("workload.generate_ms", median(generate), "ms")
	return nil
}

// warmTicks is how far every in-process world is stepped before it is
// measured: the same K the end-to-end run verifies at, so both look at
// the world in the same phase.
const warmTicks = 20

// warmWorld builds the workload's world standalone and steps it to
// warmTicks.
func (l *layerRun) warmWorld() (*sgl.Session, error) {
	s, err := l.spec.World.standalone(l.seed)
	if err != nil {
		return nil, err
	}
	return s, s.Step(warmTicks)
}

// ticks takes the tick apart. Before each engine tick the harness runs
// the tick's two query layers itself, on the very snapshot the engine is
// about to read: exec (build every index from scratch; and, from the
// previous tick's provider and a harness-computed delta, maintain them
// instead) and algebra (the effect query over the frozen provider). Then
// the engine ticks under a span of its own. A twin world steps the same
// ticks with no harness work in between: the difference between the two
// engines' tick times is what tracing itself costs.
func (l *layerRun) ticks() error {
	sess, err := l.warmWorld()
	if err != nil {
		return err
	}
	twin, err := l.warmWorld()
	if err != nil {
		return err
	}
	eng := sess.Engine()
	prog, plan, an, env := eng.Program(), eng.Plan(), eng.Analyzer(), eng.Env()
	src := rng.New(l.seed)
	width := prog.Schema.NumAttrs()
	defs := 0
	for _, d := range prog.Script.Aggs {
		if an.Agg(d).Indexable {
			defs++
		}
	}
	for _, d := range prog.Script.Acts {
		if an.Act(d).Class == exec.ActArea {
			defs++
		}
	}

	var build, maintain, effects, tick, twinTick, allocs, bytesPer, rows, probes, dirtyFrac []float64
	attempted, fellBack := 0, 0
	var prev *exec.Indexed
	snap := make([]float64, env.Len()*width)
	snapshot := func() {
		for i, row := range env.Rows {
			copy(snap[i*width:], row)
		}
	}
	snapshot()

	deadline := time.Now().Add(l.budget * 2 / 5)
	for n := 0; n < 200 && (n < 8 || time.Now().Before(deadline)); n++ {
		t := eng.TickCount()
		r := src.Tick(t)
		root := l.tr.begin("tick", 0, t)

		var prov *exec.Indexed
		build = append(build, l.timed("exec.build", root, t, func() {
			prov = exec.NewIndexed(an, env, r)
			prov.Freeze()
		}))
		if prev != nil {
			// The delta the engine would have captured: rows whose bits
			// changed since the snapshot prev was built on, with a
			// changed-column mask each.
			var d exec.Delta
			for i, row := range env.Rows {
				var m uint64
				for c, v := range row {
					if math.Float64bits(v) != math.Float64bits(snap[i*width+c]) {
						m |= 1 << min(c, 63)
					}
				}
				if m != 0 {
					d.Dirty = append(d.Dirty, i)
					d.Masks = append(d.Masks, m)
				}
			}
			dirtyFrac = append(dirtyFrac, d.Frac(env.Len()))
			var patched *exec.Indexed
			maintain = append(maintain, l.timed("exec.maintain", root, t, func() {
				patched = exec.NewIndexed(an, env, r)
				patched.MaintainFrom(prev, d, engine.DefaultIncrementalThreshold)
				patched.Freeze()
			}))
			attempted += defs
			fellBack += patched.Stats.MaintainFallbacks
		}
		snapshot()

		emitted := 0
		var ferr error
		effects = append(effects, l.timed("algebra.effects", root, t, func() {
			ferr = algebra.NewExecutor(prog, plan, env, prov, r).Effects(func([]float64) { emitted++ })
		}))
		if ferr != nil {
			return fmt.Errorf("effect query at tick %d: %w", t, ferr)
		}
		rows = append(rows, float64(emitted))
		st := prov.Stats
		probes = append(probes, float64(st.TreeProbes+st.KDProbes+st.ScanProbes+st.Sweeps))
		prev = prov

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var terr error
		tick = append(tick, l.timed("engine.tick", root, t, func() { terr = sess.Step(1) }))
		runtime.ReadMemStats(&m1)
		if terr != nil {
			return terr
		}
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytesPer = append(bytesPer, float64(m1.TotalAlloc-m0.TotalAlloc))
		l.tr.end(root)

		t0 := time.Now()
		if err := twin.Step(1); err != nil {
			return err
		}
		twinTick = append(twinTick, float64(time.Since(t0).Nanoseconds())/1e6)
	}

	// The engine builds OR maintains, never both: charge it the one its
	// world is configured for.
	indexMS := median(build)
	if l.spec.World.Incremental {
		indexMS = median(maintain)
	}
	l.set("algebra.effects_ms_per_tick", median(effects), "ms")
	l.set("algebra.effect_rows_per_tick", median(rows), "count")
	l.set("exec.build_ms_per_tick", median(build), "ms")
	l.set("exec.maintain_ms_per_tick", median(maintain), "ms")
	l.set("exec.dirty_frac", median(dirtyFrac), "ratio")
	l.set("exec.maintained_ratio", 1-float64(fellBack)/float64(max(attempted, 1)), "ratio")
	l.set("exec.probes_per_tick", median(probes), "count")
	l.set("engine.tick_ms", median(tick), "ms")
	l.set("engine.tick_self_ms", median(tick)-indexMS-median(effects), "ms")
	l.set("engine.allocs_per_tick", median(allocs), "count")
	l.set("engine.bytes_per_tick", median(bytesPer), "B")
	l.set("trace.overhead_frac", (median(tick)-median(twinTick))/median(twinTick), "ratio")
	return nil
}

// queries times the engine's read and write entry points a request ends
// in: the indexed probe, the one index build the first query after a
// tick pays, the maintained answer, the scan, and command admission.
func (l *layerRun) queries() error {
	sess, err := l.warmWorld()
	if err != nil {
		return err
	}
	q, err := sgl.CompileQuery(zoneQuery, sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		return err
	}
	tr := traffic{seed: l.seed, session: "w", w: l.spec.World}
	side := l.spec.World.side()

	var first []float64
	for i := 0; i < 8; i++ {
		if err := sess.Step(1); err != nil {
			return err
		}
		x, y := tr.zone(i, side)
		var qerr error
		first = append(first, 1e3*l.timed("engine.query_first", 0, int64(i), func() { _, qerr = sess.Query(q, x, y, zoneRadius) }))
		if qerr != nil {
			return qerr
		}
	}
	l.set("engine.query_first_after_tick_us", median(first), "us")

	// perCall times n back-to-back calls under one span and returns the
	// mean: single calls are too short for a span each.
	perCall := func(name string, n int, call func(i int) error) (float64, error) {
		var cerr error
		ms := l.timed(name, 0, 0, func() {
			for i := 0; i < n && cerr == nil; i++ {
				cerr = call(i)
			}
		})
		return ms * 1e6 / float64(n), cerr
	}
	ns, err := perCall("engine.query_indexed", 2000, func(i int) error {
		x, y := tr.zone(i, side)
		_, err := sess.Query(q, x, y, zoneRadius)
		return err
	})
	if err != nil {
		return err
	}
	l.set("engine.query_indexed_ns", ns, "ns")
	x0, y0 := tr.zone(0, side)
	if ns, err = perCall("engine.query_maintained", 2000, func(int) error {
		_, err := sess.QueryMaintained(q, x0, y0, zoneRadius)
		return err
	}); err != nil {
		return err
	}
	l.set("engine.query_maintained_ns", ns, "ns")
	if ns, err = perCall("engine.query_scan", 50, func(i int) error {
		x, y := tr.zone(i, side)
		_, err := sess.QueryScan(q, x, y, zoneRadius)
		return err
	}); err != nil {
		return err
	}
	l.set("engine.query_scan_us", ns/1e3, "us")
	keys := tr.keys()
	if ns, err = perCall("engine.submit", 2000, func(i int) error {
		k, v := tr.command(i, keys)
		_, err := sess.SubmitTick(actorOrigin, sgl.Command{Op: sgl.OpSet, Key: k, Col: "morale", Val: v})
		return err
	}); err != nil {
		return err
	}
	l.set("engine.submit_ns", ns, "ns")
	return nil
}

// answers prices maintained-answer upkeep inside the tick: two worlds
// step in lockstep, one of them with 64 maintained probes registered and
// re-read after every tick (as the server's push fan-out does); the
// difference between their tick times is what the probes cost the tick.
func (l *layerRun) answers() error {
	bare, err := l.warmWorld()
	if err != nil {
		return err
	}
	watched, err := l.warmWorld()
	if err != nil {
		return err
	}
	tr := traffic{seed: l.seed, session: "w", w: l.spec.World}
	side := l.spec.World.side()
	// One query keeps at most 32 maintained answers, so 64 probes are two
	// compiled queries with 32 windows each.
	var qs [2]*sgl.Query
	for i := range qs {
		if qs[i], err = sgl.CompileQuery(zoneQuery, sgl.BattleSchema(), sgl.BattleConsts()); err != nil {
			return err
		}
	}
	read := func() error {
		for p := 0; p < 64; p++ {
			x, y := tr.zone(p, side)
			if _, err := watched.QueryMaintained(qs[p/32], x, y, zoneRadius); err != nil {
				return err
			}
		}
		return nil
	}
	if err := read(); err != nil {
		return err
	}
	var diff []float64
	deadline := time.Now().Add(l.budget / 10)
	for n := 0; n < 100 && (n < 8 || time.Now().Before(deadline)); n++ {
		var e1, e2 error
		b := l.timed("engine.tick_bare", 0, int64(n), func() { e1 = bare.Step(1) })
		w := l.timed("engine.tick_watched", 0, int64(n), func() { e2 = watched.Step(1) })
		if e1 != nil || e2 != nil {
			return fmt.Errorf("answers: %v %v", e1, e2)
		}
		diff = append(diff, (w-b)*1e3)
		if err := read(); err != nil {
			return err
		}
	}
	l.set("engine.answers_us_per_tick", median(diff), "us")
	return nil
}

// checkpoint times the migration vehicle: writing and reopening the
// world's checkpoint (engine), and the row codec underneath it (table).
func (l *layerRun) checkpoint() error {
	sess, err := l.warmWorld()
	if err != nil {
		return err
	}
	var write, open, enc, dec []float64
	var ck bytes.Buffer
	for i := 0; i < 5; i++ {
		ck.Reset()
		var werr error
		write = append(write, l.timed("engine.checkpoint", 0, int64(i), func() { werr = sess.Checkpoint(&ck) }))
		if werr != nil {
			return werr
		}
		open = append(open, l.timed("engine.open", 0, int64(i), func() {
			_, werr = sgl.Open(bytes.NewReader(ck.Bytes()), sgl.NewBattleMechanics(), l.spec.World.engineOptions(l.seed))
		}))
		if werr != nil {
			return werr
		}
		env := sess.Engine().Env()
		var rows bytes.Buffer
		ms := l.timed("table.encode", 0, int64(i), func() {
			tw := table.NewWriter(&rows)
			table.WriteRows(tw, env)
			werr = tw.Err()
		})
		if werr != nil {
			return werr
		}
		mb := float64(rows.Len()) / 1e6
		enc = append(enc, mb/(ms/1e3))
		ms = l.timed("table.decode", 0, int64(i), func() {
			_, werr = table.ReadRows(table.NewReader(bytes.NewReader(rows.Bytes())), env.Schema)
		})
		if werr != nil {
			return werr
		}
		dec = append(dec, mb/(ms/1e3))
	}
	l.set("engine.checkpoint_ms", median(write), "ms")
	l.set("engine.open_ms", median(open), "ms")
	l.set("table.checkpoint_bytes", float64(ck.Len()), "B")
	l.set("table.encode_mb_per_s", median(enc), "MB/s")
	l.set("table.decode_mb_per_s", median(dec), "MB/s")
	return nil
}

// serverLayer times the HTTP handlers with no socket under them (a
// recorder stands in for the connection), then finds the one-connection
// saturation point of the query path over a real loopback socket.
func (l *layerRun) serverLayer() error {
	reg := server.NewRegistry()
	defer reg.Close()
	srv := server.New(reg, "")
	w := l.spec.World
	wd, err := reg.Create("w", server.WorldSpec{
		Script: w.Script, Units: w.Units, Density: density, Seed: l.seed, Formation: workload.BattleLines,
		Mode: engine.Indexed, Tune: engine.Options{Workers: 1, Incremental: w.Incremental, CompactJournal: w.Compact},
	})
	if err != nil {
		return err
	}
	if err := wd.Step(warmTicks); err != nil {
		return err
	}
	tr := traffic{seed: l.seed, session: "w", w: w}
	handler := func(name string, s schedule) (float64, error) {
		var us []float64
		for i := 0; i < 500; i++ {
			r := s.Gen(i)
			req := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
			rec := httptest.NewRecorder()
			us = append(us, 1e3*l.timed(name, 0, int64(i), func() { srv.ServeHTTP(rec, req) }))
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("%s: status %d: %s", name, rec.Code, rec.Body)
			}
		}
		return median(us), nil
	}
	us, err := handler("server.query_handler", tr.queries(1))
	if err != nil {
		return err
	}
	l.set("server.query_handler_us", us, "us")
	if us, err = handler("server.commands_handler", tr.commands(1)); err != nil {
		return err
	}
	l.set("server.commands_handler_us", us, "us")

	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := newConnClient(10 * time.Second)
	s := tr.queries(1)
	window := l.budget * 3 / 20
	id := l.tr.begin("server.query_capacity", 0, 0)
	t0, n := time.Now(), 0
	for ; time.Since(t0) < window; n++ {
		if err := do(client, ts.URL, s.Gen(n), nil); err != nil {
			return err
		}
	}
	l.tr.end(id)
	l.set("server.query_capacity_qps", float64(n)/time.Since(t0).Seconds(), "1/s")
	return nil
}

// clusterLayer prices the cluster tier against in-process nodes: the
// proxy hop (the same query through a gateway and straight to the owning
// node) and the checkpoint transfer a migration performs (GET from the
// owner, PUT into the other node).
func (l *layerRun) clusterLayer() error {
	var in inprocLauncher
	east, _ := in.sgld("east")
	defer east.stop()
	west, _ := in.sgld("west")
	defer west.stop()
	gw, err := in.sglgw([]*node{east, west})
	if err != nil {
		return err
	}
	defer gw.stop()
	client := &http.Client{Timeout: 30 * time.Second}
	via := api{c: client, base: gw.url}
	if err := via.call("POST", "/v1/sessions", l.spec.World.createRequest("w", l.seed), nil); err != nil {
		return err
	}
	if err := via.call("POST", "/v1/sessions/w/step", server.StepRequest{Ticks: warmTicks}, nil); err != nil {
		return err
	}
	owner, other := api{c: client, base: east.url}, api{c: client, base: west.url}
	if owner.call("GET", "/v1/sessions/w", nil, nil) != nil {
		owner, other = other, owner
	}

	tr := traffic{seed: l.seed, session: "w", w: l.spec.World}
	s := tr.queries(1)
	conns := [2]struct {
		name   string
		base   string
		client *http.Client
		us     []float64
	}{
		{name: "cluster.routed_query", base: gw.url, client: newConnClient(10 * time.Second)},
		{name: "cluster.direct_query", base: owner.base, client: newConnClient(10 * time.Second)},
	}
	for i := 0; i < 300; i++ {
		for c := range conns {
			var derr error
			conns[c].us = append(conns[c].us, 1e3*l.timed(conns[c].name, 0, int64(i), func() {
				derr = do(conns[c].client, conns[c].base, s.Gen(i), nil)
			}))
			if derr != nil {
				return derr
			}
		}
	}
	l.set("cluster.hop_us", median(conns[0].us)-median(conns[1].us), "us")

	var transfer []float64
	for i := 0; i < 5; i++ {
		var terr error
		transfer = append(transfer, l.timed("cluster.transfer", 0, int64(i), func() {
			var ck []byte
			if terr = owner.call("GET", "/v1/sessions/w/checkpoint", nil, &ck); terr != nil {
				return
			}
			terr = do(client, other.base, request{Method: "PUT", Path: "/v1/sessions/w/checkpoint?workers=1", Body: ck}, nil)
		}))
		if terr != nil {
			return terr
		}
		if err := other.call("DELETE", "/v1/sessions/w", nil, nil); err != nil {
			return err
		}
	}
	l.set("cluster.transfer_ms", median(transfer), "ms")
	return nil
}
