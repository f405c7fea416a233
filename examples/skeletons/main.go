// Skeletons reproduces the paper's motivating example from Section 3:
// "Suppose the game designer wants a certain type of unit to run in fear
// from a large number of marching skeletons … if all the units can see the
// skeletons, then each unit performs an O(n) count aggregate, for a total
// time of O(n²)."
//
// Here an army of villagers individually counts the skeletons each of them
// can see and flees — morale varies per unit, so the herd frays at the
// edges instead of moving uniformly (the individuality the paper argues
// centralized AI cannot express). The same scripts run under both engines
// and the program reports the measured time ratio. Both engines run the
// same compiled plan, so the ratio is scanning against indexing: O(n) per
// aggregate against the shared range trees, with no interpretation cost
// on either side.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"github.com/epicscale/sgl"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
)

const script = `
aggregate SkeletonsVisible(u) :=
  count(*)
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player;

aggregate SkeletonCentroid(u) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player;

action Flee(u, fx, fy) :=
  on e where e.key = u.key
  set movevect_x = u.posx - fx, movevect_y = u.posy - fy;

action March(u) :=
  on e where e.key = u.key
  set movevect_x = 0 - 1, movevect_y = 0;

function main(u) {
  if u.player = 1 then perform March(u);   # skeletons march west
  else (let seen = SkeletonsVisible(u)) {
    if seen > u.morale then perform Flee(u, SkeletonCentroid(u))
  }
}
`

type mechanics struct{ schema *sgl.Schema }

func (m *mechanics) ApplyEffects(row []float64, effects []float64) (geom.Vec, bool) {
	get := func(name string) float64 {
		v := effects[m.schema.MustCol(name)]
		if math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return geom.Vec{X: get("movevect_x"), Y: get("movevect_y")}, true
}

func (m *mechanics) Respawn(row []float64, st *rng.Stream) {}

func main() {
	schema, err := sgl.NewSchema(
		sgl.Attr{Name: "key", Kind: sgl.Const},
		sgl.Attr{Name: "player", Kind: sgl.Const}, // 0 = villager, 1 = skeleton
		sgl.Attr{Name: "posx", Kind: sgl.Const},
		sgl.Attr{Name: "posy", Kind: sgl.Const},
		sgl.Attr{Name: "sight", Kind: sgl.Const},
		sgl.Attr{Name: "morale", Kind: sgl.Const},
		sgl.Attr{Name: "movevect_x", Kind: sgl.Sum},
		sgl.Attr{Name: "movevect_y", Kind: sgl.Sum},
	)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := sgl.CompileScript(script, schema, nil)
	if err != nil {
		log.Fatal(err)
	}

	const n = 3000
	const side = 550.0
	build := func() *sgl.Table {
		st := rng.NewStream(rng.New(9), 1)
		world := sgl.NewTable(schema, n)
		for i := 0; i < n; i++ {
			player := 0.0
			x := float64(st.Intn(side / 2))
			if i%2 == 1 {
				player = 1
				x = side/2 + float64(st.Intn(side/2))
			}
			world.Append([]float64{
				float64(i), player, x, float64(st.Intn(side)),
				40,                       // d20-scale sight
				float64(3 + st.Intn(12)), // per-unit morale
				0, 0,
			})
		}
		return world
	}

	measure := func(mode sgl.Mode) (time.Duration, *sgl.Engine) {
		eng, err := sgl.NewEngine(prog, &mechanics{schema: schema}, build(), sgl.EngineOptions{
			Mode: mode, Categoricals: []string{"player"}, Seed: 9, Side: side, MoveSpeed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := eng.Run(10); err != nil {
			log.Fatal(err)
		}
		return time.Since(start), eng
	}

	naiveTime, naiveEng := measure(sgl.Naive)
	indexedTime, indexedEng := measure(sgl.Indexed)
	if !naiveEng.Env().AlmostEqualContents(indexedEng.Env(), 1e-9) {
		log.Fatal("engines disagree")
	}

	fleeing := 0
	for _, row := range indexedEng.Env().Rows {
		if row[schema.MustCol("player")] == 0 && row[schema.MustCol("posx")] < side/2-10 {
			fleeing++
		}
	}
	fmt.Printf("%d units, 10 ticks of skeleton panic (both engines agree)\n", n)
	fmt.Printf("  naive   engine: %8.3fs  (each unit scans all %d units per aggregate)\n", naiveTime.Seconds(), n)
	fmt.Printf("  indexed engine: %8.3fs  (shared range trees over the skeleton horde)\n", indexedTime.Seconds())
	fmt.Printf("  speedup: %.1f× (scan → index, same executor)\n", naiveTime.Seconds()/indexedTime.Seconds())
	fmt.Printf("  villagers driven deep into the west: %d (morale varies per unit — no uniform herd)\n", fleeing)
}
