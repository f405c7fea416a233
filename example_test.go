package sgl_test

import (
	"bytes"
	"fmt"
	"log"
	"sync"

	"github.com/epicscale/sgl"
)

// Compile a small SGL script against a custom schema and inspect how the
// optimizer will execute it.
func ExampleCompileScript() {
	schema, err := sgl.NewSchema(
		sgl.Attr{Name: "key", Kind: sgl.Const},
		sgl.Attr{Name: "player", Kind: sgl.Const},
		sgl.Attr{Name: "posx", Kind: sgl.Const},
		sgl.Attr{Name: "posy", Kind: sgl.Const},
		sgl.Attr{Name: "morale", Kind: sgl.Const},
		sgl.Attr{Name: "movevect_x", Kind: sgl.Sum},
		sgl.Attr{Name: "movevect_y", Kind: sgl.Sum},
	)
	if err != nil {
		log.Fatal(err)
	}

	const src = `
aggregate EnemiesNear(u) :=
  count(*)
  over e where e.posx >= u.posx - 8 and e.posx <= u.posx + 8
    and e.posy >= u.posy - 8 and e.posy <= u.posy + 8
    and e.player <> u.player;

action Retreat(u) :=
  on e where e.key = u.key
  set movevect_x = 0 - 1, movevect_y = 0;

function main(u) {
  if EnemiesNear(u) > u.morale then perform Retreat(u)
}`
	prog, err := sgl.CompileScript(src, schema, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregates: %d, actions: %d\n", len(prog.Script.Aggs), len(prog.Script.Acts))

	plan, err := sgl.CompilePlan(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan.Explain())
	// Output:
	// aggregates: 1, actions: 1
	// ⊕
	//   act⊕[#1] Retreat()
	//     σ[#2] EnemiesNear(u) > u.morale
	//       E
}

// Run the paper's battle simulation for a handful of ticks and confirm
// both evaluators produce the same world.
func ExampleNewBattleEngine() {
	prog, err := sgl.CompileBattle()
	if err != nil {
		log.Fatal(err)
	}
	spec := sgl.ArmySpec{Units: 60, Density: 0.02, Seed: 3, Formation: 1}

	run := func(mode sgl.Mode) *sgl.Engine {
		eng, err := sgl.NewBattleEngine(prog, spec, mode, 3)
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Run(8); err != nil {
			log.Fatal(err)
		}
		return eng
	}
	naive := run(sgl.Naive)
	indexed := run(sgl.Indexed)

	fmt.Println("units:", indexed.Env().Len())
	fmt.Println("engines agree:", naive.Env().AlmostEqualContents(indexed.Env(), 1e-9))
	// Output:
	// units: 60
	// engines agree: true
}

// Serve a live world: a Session advances the clock with Step while any
// number of spectator goroutines observe it concurrently through
// compiled queries — all sharing one index build per tick.
func ExampleNewSession() {
	prog, err := sgl.CompileBattle()
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sgl.NewBattleEngineOpts(prog,
		sgl.ArmySpec{Units: 80, Density: 0.02, Seed: 9, Formation: 1},
		sgl.EngineOptions{Mode: sgl.Indexed, Seed: 9, Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	sess := sgl.NewSession(eng)

	hookFired := 0
	sess.OnTick(func(tick int64, stats sgl.RunStats) { hookFired++ })
	if err := sess.Step(6); err != nil {
		log.Fatal(err)
	}

	// Four spectators ask the same question at once; the session's
	// reader lock makes this safe against a concurrently running clock.
	q, err := sgl.CompileQuery(
		`aggregate Pop(u) := count(*) as n over e;`,
		sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}
	var wg sync.WaitGroup
	alive := make([]float64, 4)
	for i := range alive {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := sess.Query(q)
			if err != nil {
				log.Fatal(err)
			}
			alive[i] = out[0]
		}(i)
	}
	wg.Wait()

	fmt.Println("tick:", sess.Tick(), "hook fired:", hookFired)
	fmt.Println("population seen by all spectators:", alive[0] == 80 && alive[1] == 80 && alive[2] == 80 && alive[3] == 80)
	// Output:
	// tick: 6 hook fired: 6
	// population seen by all spectators: true
}

// Compile an observation query — the read-only SGL subset — and evaluate
// it on a live world's read view through all three probes. The indexed
// path and the naive scan must agree.
func ExampleCompileQuery() {
	prog, err := sgl.CompileBattle()
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sgl.NewBattleEngine(prog, sgl.ArmySpec{Units: 60, Density: 0.02, Seed: 4, Formation: 1}, sgl.Indexed, 4)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Run(3); err != nil {
		log.Fatal(err)
	}

	// A world query reads no unit attributes: any probe will do, World
	// says so.
	pop, err := sgl.CompileQuery(
		`aggregate Pop(u) := count(*) as n, min(e.health) as low over e;`,
		sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}
	v := eng.ReadView()
	out, err := v.Query(pop, sgl.World())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("outputs %v: population %d\n", pop.Outputs(), int(out[0]))

	// A positional query reads only u.posx/u.posy: probe it At any
	// observer position. The scan twin is the oracle.
	zone, err := sgl.CompileQuery(`
aggregate Zone(u, r) :=
  count(*)
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`,
		sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}
	idx, err := v.Query(zone, sgl.At(20, 20), 10)
	if err != nil {
		log.Fatal(err)
	}
	scan, err := v.QueryScan(zone, sgl.At(20, 20), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("indexed agrees with scan:", idx[0] == scan[0])

	// A query reading other unit attributes runs through a live unit's
	// eyes: probe it from a Unit, by key.
	foes, err := sgl.CompileQuery(
		`aggregate Foes(u) := count(*) over e where e.player <> u.player;`,
		sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}
	seen, err := v.Query(foes, sgl.Unit(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("foes of unit 0:", int(seen[0]))
	// Output:
	// outputs [n low]: population 60
	// indexed agrees with scan: true
	// foes of unit 0: 30
}

// Inject external commands into a live session, then checkpoint and
// reopen the world from the self-contained stream alone — no program,
// no sidecar. The injected state (the despawned unit, the input
// journal) survives the round trip, and the reopened world continues
// exactly as if never interrupted, even under different execution
// tuning: checkpoints are migration vehicles, and the tuning knobs are
// not part of the format.
func ExampleOpen() {
	prog, err := sgl.CompileBattle()
	if err != nil {
		log.Fatal(err)
	}
	eng, err := sgl.NewBattleEngine(prog, sgl.ArmySpec{Units: 60, Density: 0.02, Seed: 9, Formation: 1}, sgl.Indexed, 9)
	if err != nil {
		log.Fatal(err)
	}
	sess := sgl.NewSession(eng)
	if err := sess.Step(5); err != nil {
		log.Fatal(err)
	}

	// Players act: commands queue up and apply at the next tick's commit
	// in canonical (tick, origin, sequence) order, so the outcome never
	// depends on network interleaving.
	err = sess.Submit("player-1",
		sgl.Command{Op: sgl.OpSet, Key: 7, Col: "morale", Val: 9},
		sgl.Command{Op: sgl.OpDespawn, Key: 11},
	)
	if err != nil {
		log.Fatal(err)
	}
	if err := sess.Step(5); err != nil {
		log.Fatal(err)
	}

	var ck bytes.Buffer
	if err := sess.Checkpoint(&ck); err != nil {
		log.Fatal(err)
	}
	reopened, err := sgl.Open(&ck, sgl.NewBattleMechanics(), sgl.EngineOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("units after despawn:", reopened.Engine().Env().Len())
	fmt.Println("journal entries:", len(reopened.Journal()))

	// The original session never stopped; run both 5 more ticks.
	if err := sess.Step(5); err != nil {
		log.Fatal(err)
	}
	if err := reopened.Step(5); err != nil {
		log.Fatal(err)
	}
	fmt.Println("identical to uninterrupted run:", reopened.Engine().Env().EqualContents(sess.Engine().Env()))
	// Output:
	// units after despawn: 59
	// journal entries: 2
	// identical to uninterrupted run: true
}
