// Quickstart: define a tiny game schema, write an SGL script, and run a
// few clock ticks under both engines, checking they agree. Both run the
// same compiled plan; Naive answers every aggregate by scanning all rows,
// Indexed through index structures, so their agreement checks the
// indexes against the scan.
//
// The "game": wolves chase the nearest sheep and bite it when adjacent;
// sheep flee from the centroid of nearby wolves.
package main

import (
	"fmt"
	"log"
	"math"

	"github.com/epicscale/sgl"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
)

const script = `
aggregate NearestSheep(u) :=
  nearestkey() as key, nearestdist() as dist,
  nearestx() as x, nearesty() as y
  over e where e.player <> u.player;

aggregate WolvesNear(u) :=
  count(*) as n, avg(e.posx) as cx, avg(e.posy) as cy
  over e where e.posx >= u.posx - 8 and e.posx <= u.posx + 8
    and e.posy >= u.posy - 8 and e.posy <= u.posy + 8
    and e.player <> u.player;

action Bite(u, target_key) :=
  on e where e.key = target_key
  set damage = 2;

action MoveToward(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;

action MoveAway(u, fx, fy) :=
  on e where e.key = u.key
  set movevect_x = u.posx - fx, movevect_y = u.posy - fy;

function wolf(u) {
  (let prey = NearestSheep(u)) {
    if prey.key >= 0 then {
      if prey.dist <= 1.5 then perform Bite(u, prey.key);
      else perform MoveToward(u, prey.x, prey.y)
    }
  }
}

function sheep(u) {
  (let danger = WolvesNear(u)) {
    if danger.n > 0 then perform MoveAway(u, danger.cx, danger.cy)
  }
}

function main(u) {
  if u.player = 0 then perform wolf(u);
  else perform sheep(u)
}
`

// mechanics applies damage and reports death; no cooldowns, no healing.
type mechanics struct{ schema *sgl.Schema }

func (m *mechanics) ApplyEffects(row []float64, effects []float64) (geom.Vec, bool) {
	health := m.schema.MustCol("health")
	dmg := effects[m.schema.MustCol("damage")]
	if !math.IsInf(dmg, 0) {
		row[health] -= dmg
	}
	mvx := effects[m.schema.MustCol("movevect_x")]
	mvy := effects[m.schema.MustCol("movevect_y")]
	var mv geom.Vec
	if !math.IsInf(mvx, 0) {
		mv.X = mvx
	}
	if !math.IsInf(mvy, 0) {
		mv.Y = mvy
	}
	return mv, row[health] > 0
}

func (m *mechanics) Respawn(row []float64, st *rng.Stream) {
	row[m.schema.MustCol("health")] = 6
}

func main() {
	schema, err := sgl.NewSchema(
		sgl.Attr{Name: "key", Kind: sgl.Const},
		sgl.Attr{Name: "player", Kind: sgl.Const}, // 0 = wolf, 1 = sheep
		sgl.Attr{Name: "posx", Kind: sgl.Const},
		sgl.Attr{Name: "posy", Kind: sgl.Const},
		sgl.Attr{Name: "health", Kind: sgl.Const},
		sgl.Attr{Name: "movevect_x", Kind: sgl.Sum},
		sgl.Attr{Name: "movevect_y", Kind: sgl.Sum},
		sgl.Attr{Name: "damage", Kind: sgl.Sum},
	)
	if err != nil {
		log.Fatal(err)
	}

	prog, err := sgl.CompileScript(script, schema, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Two wolves and six sheep on a 24×24 meadow.
	newWorld := func() *sgl.Table {
		world := sgl.NewTable(schema, 8)
		add := func(key int64, player, x, y float64) {
			world.Append([]float64{float64(key), player, x, y, 6, 0, 0, 0})
		}
		add(0, 0, 0, 0)
		add(1, 0, 23, 23)
		for i := int64(2); i < 8; i++ {
			add(i, 1, float64(2+3*i), float64(20-2*i)) // x 8..23, inside [0, 24)
		}
		return world
	}

	run := func(mode sgl.Mode) *sgl.Engine {
		eng, err := sgl.NewEngine(prog, &mechanics{schema: schema}, newWorld(), sgl.EngineOptions{
			Mode: mode, Seed: 7, Side: 24, MoveSpeed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := eng.Run(20); err != nil {
			log.Fatal(err)
		}
		return eng
	}

	naive := run(sgl.Naive)
	indexed := run(sgl.Indexed)
	if !naive.Env().AlmostEqualContents(indexed.Env(), 1e-9) {
		log.Fatal("engines disagree!")
	}

	fmt.Println("wolves and sheep after 20 ticks (both engines agree):")
	env := indexed.Env()
	env.SortByKey()
	for _, row := range env.Rows {
		kind := "wolf "
		if row[schema.MustCol("player")] == 1 {
			kind = "sheep"
		}
		fmt.Printf("  %s #%d at (%4.1f, %4.1f) health %v\n",
			kind, int(row[schema.KeyCol()]),
			row[schema.MustCol("posx")], row[schema.MustCol("posy")],
			row[schema.MustCol("health")])
	}
	fmt.Printf("bites landed: %d deaths across the run\n", indexed.Stats.Deaths)
}
