package algebra

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

// probeLog records every (unit, definition, argument values) triple a
// provider answers, one entry per provider row.
type probeLog struct {
	kc    int
	rows  int
	seen  map[string]int
	twice []string
}

func newProbeLog(prog *sem.Program) *probeLog {
	return &probeLog{kc: prog.Schema.KeyCol(), seen: map[string]int{}}
}

func (l *probeLog) add(def *ast.AggDef, unit, args []float64) {
	key := fmt.Sprintf("%s unit %v args", def.Name, unit[l.kc])
	for _, a := range args {
		key += fmt.Sprintf(" %#x", math.Float64bits(a))
	}
	l.rows++
	if l.seen[key]++; l.seen[key] == 2 && len(l.twice) < 5 {
		l.twice = append(l.twice, key)
	}
}

// countingProvider logs what its provider answers one probe at a time.
type countingProvider struct {
	interp.Provider
	log *probeLog
}

func (p countingProvider) EvalAgg(def *ast.AggDef, unit, args []float64) []float64 {
	p.log.add(def, unit, args)
	return p.Provider.EvalAgg(def, unit, args)
}

// countingIndexed adds the indexed provider's zero-alloc and
// set-at-a-time paths, logging one row per probe of a batch.
type countingIndexed struct {
	countingProvider
	ix *exec.Indexed
}

func (p countingIndexed) EvalAggInto(dst []float64, def *ast.AggDef, unit, args []float64) []float64 {
	p.log.add(def, unit, args)
	return p.ix.EvalAggInto(dst, def, unit, args)
}

func (p countingIndexed) EvalAggBatch(def *ast.AggDef, units [][]float64, args [][]float64) [][]float64 {
	for i, u := range units {
		var a []float64
		if args != nil {
			a = args[i]
		}
		p.log.add(def, u, a)
	}
	return p.ix.EvalAggBatch(def, units, args)
}

func (p countingIndexed) BatchBeneficial(def *ast.AggDef) bool { return p.ix.BatchBeneficial(def) }

// battleEnv is a scattered battle-schema army dense enough that every
// guard of the battle script goes both ways: units see enemies, some are
// wounded and some are ready to strike.
func battleEnv(n int, seed uint64) *table.Table {
	env := workload.Generate(workload.Spec{Units: n, Density: 0.08, Seed: seed})
	hc, mc, cc := env.Schema.MustCol("health"), env.Schema.MustCol("maxhealth"), env.Schema.MustCol("cooldown")
	for i, row := range env.Rows {
		row[hc] = row[mc] - float64(i*7%5)
		row[cc] = float64(i % 3 / 2)
	}
	return env
}

// shardedTick runs plan over env the way the engine's parallel decision
// phase does: one executor per contiguous shard, concurrently, each over
// the provider prov returns for its shard, effects merged Apply-major and
// shard-minor, then ⊕-combined with env.
func shardedTick(t *testing.T, prog *sem.Program, plan *Plan, env *table.Table, r rng.TickSource,
	workers int, prov func(shard int) interp.Provider) *table.Table {
	t.Helper()
	applies, err := plan.Applies()
	if err != nil {
		t.Fatal(err)
	}
	effects := make([][][][]float64, workers) // [shard][apply][emission order]
	errs := make([]error, workers)
	n := env.Len()
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := prov(s)
			x, err := NewExecutorRange(prog, plan, env, p, r, s*n/workers, (s+1)*n/workers)
			if err != nil {
				errs[s] = err
				return
			}
			effects[s] = make([][][]float64, len(applies))
			for j, ap := range applies {
				err := x.EachUnit(ap.In, func(row *Row) error {
					args := x.ApplyArgs(nil, ap, row)
					p.SelectTargets(ap.Def, row.Unit, args, func(tgt []float64) {
						effects[s][j] = append(effects[s][j], x.BuildEffectRow(nil, ap.Def, row.Unit, args, tgt))
					})
					return nil
				})
				if err != nil {
					errs[s] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	out := table.New(env.Schema, 0)
	for j := range applies {
		for s := range effects {
			for _, row := range effects[s][j] {
				out.Append(row)
			}
		}
	}
	return out.Union(env).Combine()
}

// TestEachCallProbedOncePerRow holds the executor to the plan's sharing:
// whatever the script — the battle, every zoo program — and however it
// runs — Workers 1 or 4, over the naive or the indexed provider (whose sweep line batches MIN/MAX calls) — the
// provider answers every (row, call class) pair once. The log counts
// provider rows and distinct (unit, definition, argument values) triples;
// no two call classes of these scripts agree on all three for one unit,
// so the two counts are equal exactly when no call class was answered
// twice for a row, however many sites reach it (if/else guards, split
// record arguments, inlined lets, a guard feeding two performs). The
// effects stay bit-identical to the interpreter.
func TestEachCallProbedOncePerRow(t *testing.T) {
	scripts := append([]exec.ZooProgram{{Name: "battle", Src: game.Script}}, exec.Zoo...)
	env := battleEnv(240, 7)
	r := rng.New(7).Tick(3)
	for _, zp := range scripts {
		t.Run(zp.Name, func(t *testing.T) {
			prog := compileBattleSchema(t, zp.Src)
			want, err := interp.RunTickNaive(prog, env, r)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Translate(prog)
			if err != nil {
				t.Fatal(err)
			}
			Optimize(plan)
			an := exec.NewAnalyzer(prog, game.Categoricals())
			for _, workers := range []int{1, 4} {
				for _, indexed := range []bool{false, true} {
					logs := make([]*probeLog, workers)
					var master *exec.Indexed
					if indexed {
						master = exec.NewIndexed(an, env, r)
						master.FreezeParallel(workers)
					}
					got := shardedTick(t, prog, plan, env, r, workers, func(s int) interp.Provider {
						logs[s] = newProbeLog(prog)
						if indexed {
							fork := master.Fork()
							return countingIndexed{countingProvider{fork, logs[s]}, fork}
						}
						return countingProvider{interp.NewNaive(prog, env, r), logs[s]}
					})
					name := fmt.Sprintf("workers=%d indexed=%v", workers, indexed)
					// Shards probe disjoint units, so their logs add up.
					rows, distinct, twice := 0, 0, []string(nil)
					for _, l := range logs {
						rows, distinct, twice = rows+l.rows, distinct+len(l.seen), append(twice, l.twice...)
					}
					if rows != distinct {
						t.Errorf("%s: provider answered %d rows for %d distinct (row, call) pairs; repeated: %v",
							name, rows, distinct, twice)
					}
					if !keyedBitsEqual(got, want) {
						t.Errorf("%s: tick differs from the interpreter", name)
					}
				}
			}
		})
	}
}

// The scripts above must actually repeat calls, or the test proves
// nothing: the battle's knights reach WeakestEnemyInReach through their
// own let and the inlined attackWeakest's, and its fleeing units split
// EnemyCentroidInSight into two action arguments.
func TestCallClassesShareSites(t *testing.T) {
	prog := compileBattleSchema(t, game.Script)
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	Optimize(plan)
	code, err := plan.compiled(prog)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]int{}
	for _, c := range code.classes {
		if c.sites > sites[c.def.Name] {
			sites[c.def.Name] = c.sites
		}
	}
	for _, name := range []string{"WeakestEnemyInReach", "EnemyCentroidInSight", "CountFriendsInSight"} {
		if sites[name] < 2 {
			t.Errorf("%s: largest call class has %d sites, want ≥ 2", name, sites[name])
		}
	}
}

// Equal printed calls are one class only when their names are bound to
// the same lets and their literals have the same bits: the two sibling
// lets below are both named r, and the printer rounds 2.0000001 to 2.
// Every row reaches every call, so a class keyed by the printed form
// alone would answer the later calls from the earlier ones' memos.
func TestCallClassKeysAreExact(t *testing.T) {
	const src = `
aggregate Near(u, rad) :=
  count(*)
  over e where e.posx >= u.posx - rad and e.posx <= u.posx + rad
    and e.posy >= u.posy - rad and e.posy <= u.posy + rad;
aggregate Weigh(u, k) := sum(e.health * k) over e where e.player = u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) {
  (let r = 3) perform Tag(u, Near(u, r));
  (let r = 9) perform Tag(u, Near(u, r) * 100);
  perform Tag(u, Weigh(u, 2) - Weigh(u, 2.0000001))
}`
	prog := compile(t, src)
	env := randomArmy(t, 5, 60, 20)
	r := rng.New(5).Tick(1)
	want, err := interp.RunTickNaive(prog, env, r)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Translate(prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewExecutor(prog, plan, env, interp.NewNaive(prog, env, r), r).Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !keyedBitsEqual(got, want) {
		t.Fatal("tick differs from the interpreter")
	}
	if n := len(plan.code.classes); n != 4 {
		t.Fatalf("%d call classes, want 4", n)
	}
}

// A guard whose chain feeds two performs runs once per row, not once per
// Apply: the Select verdict memo counts the Applies that pull rows
// through a Select, not the distinct chains.
func TestGuardFeedingTwoPerformsRunsOnce(t *testing.T) {
	const src = `
aggregate Foes(u) :=
  count(*)
  over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
action Mark(u) := on e where e.key = u.key set weaponused = 1;
function main(u) {
  if Foes(u) > 0 and u.cooldown = 0 then { perform Tag(u, 1); perform Mark(u) }
}`
	prog := compile(t, src)
	env := randomArmy(t, 3, 40, 20)
	r := rng.New(3).Tick(1)
	cc := env.Schema.MustCol("cooldown")
	ready := 0
	for _, row := range env.Rows {
		if row[cc] == 0 {
			ready++
		}
	}
	want, err := interp.RunTickNaive(prog, env, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []bool{false, true} {
		plan, err := Translate(prog)
		if err != nil {
			t.Fatal(err)
		}
		if opt {
			Optimize(plan)
		}
		log := newProbeLog(prog)
		got, err := NewExecutor(prog, plan, env, countingProvider{interp.NewNaive(prog, env, r), log}, r).Tick()
		if err != nil {
			t.Fatal(err)
		}
		if log.rows != ready {
			t.Errorf("opt=%v: Foes probed %d times for %d ready units", opt, log.rows, ready)
		}
		if !keyedBitsEqual(got, want) {
			t.Errorf("opt=%v: tick differs from the interpreter", opt)
		}
	}
}
