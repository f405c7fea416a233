package engine

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// parkingGame is the battle mechanics with a gate in the middle of the
// tick: once armed, the first ApplyEffects call announces itself and every
// call waits for release. It pins a Step inside the post-processing phase
// — environment half-mutated, writer lock held — for as long as a test
// needs to look at what readers can still do.
type parkingGame struct {
	Game
	armed   atomic.Bool
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (g *parkingGame) ApplyEffects(row, effects []float64) (geom.Vec, bool) {
	if g.armed.Load() {
		g.once.Do(func() { close(g.parked) })
		<-g.release
	}
	return g.Game.ApplyEffects(row, effects)
}

// sameBits compares answer vectors bit for bit (NaN-stable).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReadsDoNotWaitForTick pins the read view's point: while a Step is
// stuck mid-tick holding the writer lock, every observation read returns
// at once, answering for — and labelled with — the last committed tick;
// after the Step returns, the same reads see the new tick.
func TestReadsDoNotWaitForTick(t *testing.T) {
	const units, seed, warm = 60, 29, 3
	g := &parkingGame{parked: make(chan struct{}), release: make(chan struct{})}
	e := newEngine(t, battleProg(t), units, Indexed, seed, func(o *Options) { o.Workers = 1 })
	g.Game = e.game
	e.game = g
	s := NewSession(e)
	ref := newSession(t, units, seed) // the same world, never parked
	if err := s.Step(warm); err != nil {
		t.Fatal(err)
	}
	if err := ref.Step(warm); err != nil {
		t.Fatal(err)
	}

	pos := compileQuery(t, `
aggregate Near(u, r) :=
  count(*) as n, sum(e.posx) as sx
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`)
	type reads struct {
		tick         int64
		at, scan, by []float64
	}
	// read performs the four lock-free reads; on a hang it fails the test
	// instead of deadlocking it.
	read := func(s *Session, when string) reads {
		t.Helper()
		done := make(chan reads, 1)
		errs := make(chan error, 1)
		go func() {
			var r reads
			var err error
			if r.at, err = s.ReadView().Query(pos, At(10, 12), 9); err != nil {
				errs <- err
				return
			}
			if r.scan, err = s.ReadView().QueryScan(pos, At(10, 12), 9); err != nil {
				errs <- err
				return
			}
			if r.by, err = s.ReadView().Query(pos, Unit(7), 9); err != nil {
				errs <- err
				return
			}
			r.tick = s.Tick()
			done <- r
		}()
		select {
		case r := <-done:
			return r
		case err := <-errs:
			t.Fatalf("%s: %v", when, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: reads blocked behind the tick", when)
		}
		return reads{}
	}
	agree := func(when string, got, want reads) {
		t.Helper()
		if got.tick != want.tick {
			t.Fatalf("%s: Tick() = %d, want %d", when, got.tick, want.tick)
		}
		if !sameBits(got.at, want.at) || !sameBits(got.scan, want.scan) || !sameBits(got.by, want.by) {
			t.Fatalf("%s: answers %v / %v / %v, want %v / %v / %v",
				when, got.at, got.scan, got.by, want.at, want.scan, want.by)
		}
	}

	before := read(ref, "reference at the warm tick")
	if before.tick != warm {
		t.Fatalf("reference Tick() = %d, want %d", before.tick, warm)
	}

	g.armed.Store(true)
	stepped := make(chan error, 1)
	go func() { stepped <- s.Step(1) }()
	select {
	case <-g.parked:
	case err := <-stepped:
		t.Fatalf("Step returned without reaching ApplyEffects: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("Step never reached ApplyEffects")
	}
	// The Step is parked mid-tick. Reads answer for the committed tick.
	agree("while Step is parked", read(s, "while Step is parked"), before)
	if v := s.ReadView(); v.Tick() != warm || v.Units() != units {
		t.Fatalf("view while parked: tick %d units %d", v.Tick(), v.Units())
	}

	close(g.release)
	if err := <-stepped; err != nil {
		t.Fatal(err)
	}
	// Read-your-step: once Step has returned, reads see its tick.
	if err := ref.Step(1); err != nil {
		t.Fatal(err)
	}
	after := read(ref, "reference after the step")
	if after.tick != warm+1 {
		t.Fatalf("reference Tick() = %d, want %d", after.tick, warm+1)
	}
	agree("after Step returned", read(s, "after Step returned"), after)
}

// viewProbe is one observation read the snapshot differential issues: a
// zoo query through its kind of probe, by the indexed or the scan
// evaluator.
type viewProbe struct {
	zoo  int // index into queryZoo
	x, y float64
	key  int64
	scan bool
}

func (p viewProbe) eval(v *ReadView, q *Query) ([]float64, error) {
	zq := queryZoo[p.zoo]
	if p.scan {
		return v.QueryScan(q, zq.kind.probe(p.x, p.y, p.key), zq.args...)
	}
	return v.Query(q, zq.kind.probe(p.x, p.y, p.key), zq.args...)
}

// viewRecord is what a reader saw: which probe, at which tick label.
type viewRecord struct {
	probe viewProbe
	tick  int64
	vals  []float64
}

// storeMin lowers m to v when v is smaller, racing other storers.
func storeMin(m *atomic.Int64, v int64) {
	for cur := m.Load(); v < cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
	}
}

// storeMax raises m to v when v is larger, racing other storers.
func storeMax(m *atomic.Int64, v int64) {
	for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
	}
}

// TestSnapshotReadsMatchStandalone is the read-view member of the
// contract-#4 family (served ≡ standalone): under a free-running clock,
// reader goroutines record (tick, values) for every zoo query, indexed
// and scan, through one view handle per read, at every cell of the grid.
// A serial standalone engine on the rebuild seam, stepped to each
// recorded tick, must reproduce every answer bit for bit
// — so a response labelled t is the state after exactly t ticks, never a
// torn or mislabelled one — indexed must agree with scan at equal
// labels, and the watched world's final checkpoint must equal an
// unwatched run's byte for byte: readers and the published copies are
// invisible to the simulation.
func TestSnapshotReadsMatchStandalone(t *testing.T) {
	const units, seed, minTicks, maxTicks, readers = 48, 41, 12, 400, 3
	type world struct {
		name string
		prog *sem.Program
	}
	progs := []world{{"battle", battleProg(t)}}
	for _, zp := range exec.Zoo {
		progs = append(progs, world{zp.Name, compileZoo(t, zp.Src)})
	}
	queries := make([]*Query, len(queryZoo))
	for i, zq := range queryZoo {
		queries[i] = compileQuery(t, zq.src)
	}
	for _, p := range progs {
		for _, c := range cells {
			p, c := p, c
			t.Run(fmt.Sprintf("%s/%v", p.name, c), func(t *testing.T) {
				tune := c.tune
				s := NewSession(newEngine(t, p.prog, units, Indexed, seed, tune))

				// Readers: each cycles through the whole zoo, both
				// evaluators, taking a fresh view per read.
				var stop atomic.Bool
				var wg sync.WaitGroup
				recs := make([][]viewRecord, readers)
				errs := make(chan error, readers)
				var done atomic.Int64 // full zoo passes completed, all readers
				// The lowest and highest tick labels any reader saw.
				var minSeen, maxSeen atomic.Int64
				minSeen.Store(math.MaxInt64)
				maxSeen.Store(-1)
				var reading atomic.Int64 // readers that have recorded a read
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						for pass := 0; !stop.Load(); pass++ {
							for zi := range queryZoo {
								for _, scan := range []bool{false, true} {
									pr := viewProbe{zoo: zi, scan: scan,
										x: float64((3*r + pass) % 20), y: float64((7*r + 2*pass) % 20),
										key: int64((11*r + pass) % units)}
									v := s.ReadView()
									vals, err := pr.eval(v, queries[zi])
									if err != nil {
										errs <- fmt.Errorf("reader %d, %s: %w", r, queryZoo[zi].name, err)
										return
									}
									recs[r] = append(recs[r], viewRecord{pr, v.Tick(), vals})
									storeMin(&minSeen, v.Tick())
									storeMax(&maxSeen, v.Tick())
									if len(recs[r]) == 1 {
										reading.Add(1)
									}
								}
							}
							done.Add(1)
						}
					}(r)
				}
				// The clock runs free until every reader has demonstrably
				// overlapped it (a loaded scheduler may not run them at all
				// for the first few ticks, so it starts once each has read),
				// and the reads carry at least two distinct tick labels:
				// done counts passes over all readers, which may all run
				// against one view.
				for reading.Load() < readers && len(errs) == 0 {
					runtime.Gosched()
				}
				ticks := 0
				for ; ticks < maxTicks && (ticks < minTicks || done.Load() < 2*readers || maxSeen.Load() <= minSeen.Load()); ticks++ {
					if err := s.Step(1); err != nil {
						t.Fatal(err)
					}
				}
				stop.Store(true)
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}

				var all []viewRecord
				for _, rr := range recs {
					all = append(all, rr...)
				}
				sort.SliceStable(all, func(i, j int) bool { return all[i].tick < all[j].tick })
				if len(all) == 0 {
					t.Fatal("readers recorded nothing")
				}
				if last := all[len(all)-1].tick; last > int64(ticks) {
					t.Fatalf("a read was labelled tick %d; the world only reached %d", last, ticks)
				}
				if all[0].tick == all[len(all)-1].tick {
					t.Fatalf("every read was labelled tick %d: readers never overlapped the clock", all[0].tick)
				}

				// Standalone: serial, rebuild-every-tick, nobody watching.
				// Stepped to each recorded label, it must reproduce the
				// recorded answer exactly; its other evaluator gives the
				// indexed ≡ scan cross-check at that label.
				alone := newEngine(t, p.prog, units, Indexed, seed, func(o *Options) {
					o.Workers = 1
					rebuildOnly(o)
				})
				for _, rec := range all {
					for alone.TickCount() < rec.tick {
						if err := alone.Tick(); err != nil {
							t.Fatal(err)
						}
					}
					zq, q := queryZoo[rec.probe.zoo], queries[rec.probe.zoo]
					want, err := rec.probe.eval(alone.ReadView(), q)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(rec.vals, want) {
						t.Fatalf("tick %d, %s (scan=%v): served %v, standalone %v",
							rec.tick, zq.name, rec.probe.scan, rec.vals, want)
					}
					twin := rec.probe
					twin.scan = !twin.scan
					other, err := twin.eval(alone.ReadView(), q)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if !closeEnough(rec.vals[i], other[i]) {
							t.Fatalf("tick %d, %s, output %s: scan=%v %v vs scan=%v %v",
								rec.tick, zq.name, q.Outputs()[i], rec.probe.scan, rec.vals[i], twin.scan, other[i])
						}
					}
				}

				// Observed ≡ unobserved: same tuning, same ticks, no readers.
				quiet := NewSession(newEngine(t, p.prog, units, Indexed, seed, tune))
				if err := quiet.Step(ticks); err != nil {
					t.Fatal(err)
				}
				var watched, unwatched bytes.Buffer
				if err := s.Checkpoint(&watched); err != nil {
					t.Fatal(err)
				}
				if err := quiet.Checkpoint(&unwatched); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(watched.Bytes(), unwatched.Bytes()) {
					t.Fatal("checkpoint of the watched world differs from the unwatched run")
				}
				c.held(t, s.Engine())
				assertRebuilt(t, alone)
			})
		}
	}
}

// TestRecycledStorageNeverReachesAView pins the ownership rule the
// rebuild-into-owned-storage tick relies on: the engine overwrites the
// index storage of its own retired tick provider and nothing else — never
// a provider a published read view built. A view is pinned and made to
// build every zoo query's indexes; the world then runs 20 ticks that
// never maintain (the rebuild seam), each rebuilding the tick's indexes into the previous tick's
// storage; afterwards the pinned view must still answer every query, from
// those same indexes, exactly as it did before the ticks — and as a scan
// of its own row copy does.
func TestRecycledStorageNeverReachesAView(t *testing.T) {
	const units, seed, warm, ticks = 48, 17, 3, 20
	queries := make([]*Query, len(queryZoo))
	for i, zq := range queryZoo {
		queries[i] = compileQuery(t, zq.src)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			e := newEngine(t, battleProg(t), units, Indexed, seed, func(o *Options) { o.Workers, o.threshold = workers, neverMaintain })
			if err := e.Run(warm); err != nil {
				t.Fatal(err)
			}
			pinned := e.ReadView()
			var probes []viewProbe
			for zi := range queryZoo {
				for k := 0; k < 4; k++ {
					probes = append(probes, viewProbe{zoo: zi, x: float64(3 * k), y: float64(5 * k), key: int64(7 * k % units)})
				}
			}
			before := make([][]float64, len(probes))
			for i, pr := range probes {
				vals, err := pr.eval(pinned, queries[pr.zoo])
				if err != nil {
					t.Fatal(err)
				}
				before[i] = vals
			}

			if err := e.Run(ticks); err != nil {
				t.Fatal(err)
			}
			assertRebuilt(t, e)

			for i, pr := range probes {
				zq, q := queryZoo[pr.zoo], queries[pr.zoo]
				after, err := pr.eval(pinned, q)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(after, before[i]) {
					t.Fatalf("%s: pinned view answered %v before the ticks and %v after", zq.name, before[i], after)
				}
				pr.scan = true
				scanned, err := pr.eval(pinned, q)
				if err != nil {
					t.Fatal(err)
				}
				for o := range after {
					if !closeEnough(after[o], scanned[o]) {
						t.Fatalf("%s output %s: pinned view indexed %v, scan %v", zq.name, q.Outputs()[o], after[o], scanned[o])
					}
				}
			}
			if pinned.Tick() != warm || e.ReadView().Tick() != warm+ticks {
				t.Fatalf("pinned view at tick %d, live view at %d", pinned.Tick(), e.ReadView().Tick())
			}
		})
	}
}

// TestViewMatchesBuiltIndex is the engine-level member of the unbuilt ≡
// built contract, for the whole zoo: a read view answers every probe
// one-shot, and each answer must carry the bits the same probe gets from
// the fully built, frozen indexes over the same rows — what the view
// would have served had it paid for a build.
func TestViewMatchesBuiltIndex(t *testing.T) {
	const units, seed, ticks = 64, 23, 5
	e := newEngine(t, battleProg(t), units, Indexed, seed, func(o *Options) { o.Workers = 1 })
	if err := e.Run(ticks); err != nil {
		t.Fatal(err)
	}
	v := e.ReadView()
	for zi, zq := range queryZoo {
		q := compileQuery(t, zq.src)
		built := exec.NewIndexed(q.analyzer(e.opts.Categoricals), v.env, v.rs)
		built.Freeze()
		for k := 0; k < 12; k++ {
			pr := viewProbe{zoo: zi, x: float64(4 * k % 20), y: float64((3*k + 1) % 20), key: int64(11 * k % units)}
			got, err := pr.eval(v, q)
			if err != nil {
				t.Fatal(err)
			}
			unit, err := q.probeRow(zq.kind.probe(pr.x, pr.y, pr.key), v, zq.args)
			if err != nil {
				t.Fatal(err)
			}
			if want := built.Fork().EvalAgg(q.def, unit, zq.args); !sameBits(got, want) {
				t.Fatalf("%s, probe %d: the view answered %v, the built index %v", zq.name, k, got, want)
			}
		}
	}
}

// TestViewRowsMatchEngine is the differential for delta-copied read
// views: a view copies only the rows the tick's delta names and shares
// the rest with the previous view, and patches the previous view's
// position column at the same rows, so after every tick its rows must
// equal the engine's bit for bit and its column its rows' (posx, posy) —
// over the zoo, the battle and a world whose every move is a blocked NaN
// move, over the grid (Workers {1, 4}, maintaining and on the rebuild
// seam), through the scripted command stream (morale, health and posx
// sets, spawns, despawns, a tune) and a reopen mid-run. A replica
// bootstrapped from an earlier checkpoint at the other worker count and
// keeping its indexes the other way — what a PUT checkpoint and a
// read replica's bootstrap both do — and replaying the journal must
// publish the same rows and a column that matches them. Views must
// actually have shared rows — not in every world, since a tick that
// dirties most rows copies them all, but across the zoo — or the test
// proves nothing about sharing.
func TestViewRowsMatchEngine(t *testing.T) {
	const units, seed, replicaAt, restoreAt = 64, 19, 3, 7
	type world struct {
		name string
		prog *sem.Program
	}
	worlds := []world{{"battle", battleProg(t)}, {"nan-move", compileZoo(t, nanMoveScript)}}
	for _, zp := range exec.Zoo {
		worlds = append(worlds, world{zp.Name, compileZoo(t, zp.Src)})
	}
	shared := 0
	for _, w := range worlds {
		for _, c := range cells {
			t.Run(fmt.Sprintf("%s/%v", w.name, c), func(t *testing.T) {
				opts := c.tune
				e := newEngine(t, w.prog, units, Indexed, seed, opts)
				var replica *Session
				// A view builds its column on first read: an odd tick's
				// views are read at once, an even tick's only at the next
				// check, once the world has moved on from them.
				var late []*ReadView
				column := func(v *ReadView) {
					t.Helper()
					if v.Tick()%2 == 0 {
						late = append(late, v)
					} else {
						checkViewPositions(t, v)
					}
				}
				check := func(prev *ReadView) {
					t.Helper()
					for _, lv := range late {
						checkViewPositions(t, lv)
					}
					late = late[:0]
					v := e.ReadView()
					if v.Tick() != e.TickCount() || !identicalTables(v.env, e.env) {
						t.Fatalf("tick %d: the view (tick %d) does not hold the engine's rows", e.TickCount(), v.Tick())
					}
					column(v)
					for i := range v.env.Rows {
						if prev != nil && i < prev.env.Len() && &v.env.Rows[i][0] == &prev.env.Rows[i][0] {
							shared++
							break
						}
					}
					if replica != nil {
						rv := replica.ReadView()
						if rv.Tick() != v.Tick() || !identicalTables(rv.env, v.env) {
							t.Fatalf("tick %d: the replica's view (tick %d) does not hold the writer's rows", v.Tick(), rv.Tick())
						}
						column(rv)
					}
				}
				check(nil)
				for tick := int64(0); tick < scriptedTicks; tick++ {
					if tick == replicaAt {
						var buf bytes.Buffer
						if err := e.Checkpoint(&buf); err != nil {
							t.Fatal(err)
						}
						var err error
						if replica, err = Open(&buf, game.NewMechanics(), Options{Workers: 5 - c.workers}); err != nil {
							t.Fatal(err)
						}
						// The replica keeps its indexes the other way.
						if !c.rebuild {
							replica.Engine().opts.threshold = neverMaintain
						}
						check(nil)
					}
					injectScripted(t, e, tick)
					if tick == restoreAt {
						var buf bytes.Buffer
						if err := e.Checkpoint(&buf); err != nil {
							t.Fatal(err)
						}
						o := Options{}
						opts(&o)
						e = reopen(t, buf.Bytes(), o)
						check(nil)
					}
					prev := e.ReadView()
					if err := e.Tick(); err != nil {
						t.Fatal(err)
					}
					if replica != nil {
						for _, sc := range e.Journal() {
							if sc.Tick == tick+1 { // the batch the writer's commit applied
								if err := replica.SubmitStamped(sc); err != nil {
									t.Fatal(err)
								}
							}
						}
						if err := replica.Step(1); err != nil {
							t.Fatal(err)
						}
					}
					check(prev)
				}
				c.held(t, e)
				if !c.rebuild {
					assertRebuilt(t, replica.Engine())
				}
			})
		}
	}
	if shared == 0 {
		t.Fatal("no view shared a row with its predecessor")
	}
}

// checkViewPositions fails t unless v's position column holds its rows'
// (posx, posy), bit for bit, row for row.
func checkViewPositions(t *testing.T, v *ReadView) {
	t.Helper()
	pos := v.positions()
	if len(pos) != v.env.Len() {
		t.Fatalf("tick %d: the view's position column has %d entries for %d rows", v.Tick(), len(pos), v.env.Len())
	}
	px, py := v.e.posX, v.e.posY
	for i, row := range v.env.Rows {
		if p := pos[i]; math.Float64bits(p.X) != math.Float64bits(row[px]) || math.Float64bits(p.Y) != math.Float64bits(row[py]) {
			t.Fatalf("tick %d: row %d stands at (%v, %v), the view's column says (%v, %v)", v.Tick(), i, row[px], row[py], p.X, p.Y)
		}
	}
}

// countingUpGame is a world where rows stop changing one by one: each
// tick, every unit whose health is below its key gains one point, so the
// unit keyed k changes on ticks 1…k and is still after tick k. Every
// tick's delta names rows the next tick names again, except for one
// that never changes again — the pattern that would keep every delta
// block a view ever copied alive through a single shared row.
type countingUpGame struct{ health, key int }

func (g countingUpGame) ApplyEffects(row, _ []float64) (geom.Vec, bool) {
	if row[g.health] < row[g.key] {
		row[g.health]++
	}
	return geom.Vec{}, true
}

func (countingUpGame) Respawn([]float64, *rng.Stream) {}

// TestViewRetentionBounded pins the two-copy bound on what a delta-copied
// view keeps alive. On countingUpGame the bytes reachable from the newest
// view — measured as the live heap it alone holds — must stay within
// twice what the full copy New publishes holds, at every measured tick,
// however many ticks have shared rows into it.
func TestViewRetentionBounded(t *testing.T) {
	const n = 1000
	s := game.Schema()
	prog := compileZoo(t, `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { if u.health < 0 - 1 then perform Tag(u, 1) }`)
	g := countingUpGame{health: s.MustCol("health"), key: s.KeyCol()}
	side := math.Ceil(math.Sqrt(n / 0.01))
	// held drops the engine's newest view and returns the live heap that
	// goes with it. Two collections each: the first also moves sync.Pool
	// contents to the victim cache the second frees.
	held := func(e *Engine) uint64 {
		var with, without runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&with)
		e.view.Store(&ReadView{e: e, env: table.New(s, 0)})
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&without)
		runtime.KeepAlive(e) // the engine itself must not count
		return with.HeapAlloc - without.HeapAlloc
	}
	build := func() *Engine {
		env := table.New(s, n)
		for i := 0; i < n; i++ {
			row := game.NewUnit(int64(i), i%2, game.Knight, geom.Point{X: float64(i % int(side)), Y: float64(i / int(side))})
			row[g.health] = 0
			env.Append(row)
		}
		e, err := New(prog, g, env, Options{
			Mode: Indexed, Categoricals: game.Categoricals(), Seed: 3, Side: side, MoveSpeed: 1,
			Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, ticks := range []int{8, 16, 24, 32, 48} {
		// New's view is measured on a twin: the engine that runs diffs
		// its first tick against its own.
		full := held(build())
		e := build()
		if cells := uint64(n * (s.NumAttrs()*8 + 24)); full < cells {
			t.Fatalf("a full copy holds %d bytes, less than its %d bytes of cells and row headers", full, cells)
		}
		if err := e.Run(ticks); err != nil {
			t.Fatal(err)
		}
		if d := len(e.delta.Dirty); d != n-ticks {
			t.Fatalf("tick %d: the delta names %d rows, want %d", ticks, d, n-ticks)
		}
		h := held(e)
		t.Logf("after %d ticks the newest view holds %d bytes (a full copy: %d)", ticks, h, full)
		if h > 2*full {
			t.Fatalf("after %d ticks the newest view holds %d bytes, more than two full copies (%d)", ticks, h, 2*full)
		}
	}
}

// BenchmarkPublishView is the tick's side of the read view: what
// publishing one costs — the row slice, a copy of the rows the tick's
// delta names, and those rows noted for the position column — on the
// low-churn patrol world, whose tick dirties its scouts and little else.
// Each iteration republishes the last tick's delta, so the periodic full
// copy (publishView) recurs at the rate that delta gives it.
func BenchmarkPublishView(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			e := newSentryEngine(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.publishView()
			}
			b.ReportMetric(float64(len(e.delta.Dirty)), "dirty-rows")
		})
	}
}
