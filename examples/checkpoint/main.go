// Checkpoint: the session lifecycle end to end — run a battle as a
// long-lived session, answer observation queries against the live world,
// checkpoint it mid-run, keep going, then restore the checkpoint (as a
// migrated world would) and prove the resumed run reaches exactly the
// state of the run that never stopped.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	"github.com/epicscale/sgl"
)

func main() {
	prog, err := sgl.CompileBattle()
	if err != nil {
		log.Fatal(err)
	}
	spec := sgl.ArmySpec{Units: 300, Density: 0.02, Seed: 42}
	eng, err := sgl.NewBattleEngineOpts(prog, spec, sgl.EngineOptions{
		Mode: sgl.Indexed, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	sess := sgl.NewSession(eng)

	// Observation queries compile once and run against any engine over
	// the same schema. armyQ and zoneQ are world queries (zoneQ takes its
	// window as arguments); nearestQ measures from the probe's position, so
	// it needs an At (or Unit) probe on a read view.
	armyQ, err := sgl.CompileQuery(`
aggregate Army(u, p) :=
  count(*) as n, sum(e.health) as hp, avg(e.health) as mean
  over e where e.player = p;`, sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}
	zoneQ, err := sgl.CompileQuery(`
aggregate Zone(u, x, y, r) :=
  count(*) as n, min(e.health) as weakest
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`, sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}
	nearestQ, err := sgl.CompileQuery(`
aggregate Closest(u) := nearestkey() as key, nearestdist() as dist over e;`,
		sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		log.Fatal(err)
	}

	report := func(when string) {
		for p := 0.0; p <= 1; p++ {
			out, err := sess.Query(armyQ, p)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s: player %.0f — %3.0f units, %5.0f total hp (mean %.1f)\n",
				when, p, out[0], out[1], out[2])
		}
	}

	fmt.Println("session: 300 units, checkpoint at tick 40, run to tick 100")
	if err := sess.Step(40); err != nil {
		log.Fatal(err)
	}
	report("tick  40")

	center := spec.Side() / 2
	zone, err := sess.Query(zoneQ, center, center, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tick  40: %2.0f units within 10 of mid-field, weakest at %v hp\n", zone[0], zone[1])
	near, err := sess.ReadView().Query(nearestQ, sgl.At(0, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tick  40: unit #%.0f is nearest the origin (%.1f away)\n", near[0], near[1])

	// Persist the world mid-run. In production this is a file or an
	// object store; the format is self-describing and checksummed.
	var ckpt bytes.Buffer
	if err := sess.Checkpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  checkpoint: %d bytes at tick %d\n", ckpt.Len(), sess.Tick())

	if err := sess.Step(60); err != nil {
		log.Fatal(err)
	}
	report("tick 100")

	// Reopen the tick-40 checkpoint — on 4 workers, as a migration to
	// bigger hardware would — and replay the remaining 60 ticks. The
	// checkpoint embeds the script (every format since v2), so Open
	// rebuilds the whole session from the stream alone (no prog argument,
	// no sidecar file).
	restored, err := sgl.Open(&ckpt, sgl.NewBattleMechanics(), sgl.EngineOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	if err := restored.Step(60); err != nil {
		log.Fatal(err)
	}

	a, b := sess.Engine().Env(), restored.Engine().Env()
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][c]) != math.Float64bits(b.Rows[i][c]) {
				log.Fatalf("resumed world diverged at row %d col %d", i, c)
			}
		}
	}
	fmt.Printf("restored at tick 40 on 4 workers, replayed to tick %d: byte-identical to the uninterrupted run\n",
		restored.Tick())
}
