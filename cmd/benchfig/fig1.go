package main

import (
	"fmt"
	"io"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// The Figure 1 reproduction runs four script tiers of increasing
// expressiveness — stand-ins for the figure's Rome: Total War, Warcraft
// III, The Sims 2 and Neverwinter Nights quadrants — and reports the
// largest army each sustains at 10 ticks per second under each engine.
// The paper's argument is that indexing moves every tier's frontier out by
// an order of magnitude, collapsing the expressiveness-versus-scale
// trade-off.

// tierScripts maps tier name → SGL source (over the battle schema).
var tierScripts = map[string]string{
	// uniform: every unit marches at the enemy's global centroid; one
	// shared aggregate, no individuality (Rome-style block movement).
	"uniform": `
aggregate EnemyCentroid(u) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.player <> u.player;
action MoveToward(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;
function main(u) {
  perform MoveToward(u, EnemyCentroid(u))
}`,

	// reactive: attack the weakest enemy in reach, otherwise close on the
	// nearest enemy (Warcraft-style per-unit combat decisions).
	"reactive": `
aggregate WeakestEnemyInReach(u) :=
  argmin(e.health) as key
  over e where e.posx >= u.posx - u.range and e.posx <= u.posx + u.range
    and e.posy >= u.posy - u.range and e.posy <= u.posy + u.range
    and e.player <> u.player;
aggregate NearestEnemy(u) :=
  nearestkey() as key, nearestx() as x, nearesty() as y
  over e where e.player <> u.player;
action Strike(u, target_key, roll, dmgroll) :=
  on e where e.key = target_key
    and (roll = 20 or (roll <> 1 and roll + u.attack >= e.ac))
  set damage = max(1, dmgroll - e.dr);
action MarkAttack(u) :=
  on e where e.key = u.key set weaponused = 1;
action MoveToward(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;
function main(u) {
  (let w = WeakestEnemyInReach(u)) {
    if w >= 0 and u.cooldown = 0 then {
      (let roll = Random(1) % 20 + 1)
      (let dmgroll = Random(2) % u.dmgsides + 1 + u.dmgbonus) {
        perform Strike(u, w, roll, dmgroll);
        perform MarkAttack(u)
      }
    };
    else (let foe = NearestEnemy(u)) {
      if foe.key >= 0 then perform MoveToward(u, foe.x, foe.y)
    }
  }
}`,

	// tactical: reactive plus morale-driven flight from local
	// outnumbering (Sims-tier responsiveness to the neighbourhood).
	"tactical": `
aggregate CountEnemiesInSight(u) :=
  count(*)
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player;
aggregate CountFriendsInSight(u) :=
  count(*)
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player = u.player;
aggregate EnemyCentroidInSight(u) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player;
aggregate WeakestEnemyInReach(u) :=
  argmin(e.health) as key
  over e where e.posx >= u.posx - u.range and e.posx <= u.posx + u.range
    and e.posy >= u.posy - u.range and e.posy <= u.posy + u.range
    and e.player <> u.player;
aggregate NearestEnemy(u) :=
  nearestkey() as key, nearestx() as x, nearesty() as y
  over e where e.player <> u.player;
action Strike(u, target_key, roll, dmgroll) :=
  on e where e.key = target_key
    and (roll = 20 or (roll <> 1 and roll + u.attack >= e.ac))
  set damage = max(1, dmgroll - e.dr);
action MarkAttack(u) :=
  on e where e.key = u.key set weaponused = 1;
action MoveToward(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;
action MoveAway(u, fx, fy) :=
  on e where e.key = u.key
  set movevect_x = u.posx - fx, movevect_y = u.posy - fy;
function main(u) {
  (let seen = CountEnemiesInSight(u)) {
    if seen > CountFriendsInSight(u) * 2 + u.morale then
      perform MoveAway(u, EnemyCentroidInSight(u));
    else {
      (let w = WeakestEnemyInReach(u)) {
        if w >= 0 and u.cooldown = 0 then {
          (let roll = Random(1) % 20 + 1)
          (let dmgroll = Random(2) % u.dmgsides + 1 + u.dmgbonus) {
            perform Strike(u, w, roll, dmgroll);
            perform MarkAttack(u)
          }
        };
        else (let foe = NearestEnemy(u)) {
          if foe.key >= 0 then perform MoveToward(u, foe.x, foe.y)
        }
      }
    }
  }
}`,
}

// scriptTiers orders the Figure 1 games from least to most expressive,
// mapped onto scripted behavior levels our engine can actually run.
var scriptTiers = []string{"uniform", "reactive", "tactical", "individual"}

// tierProgram compiles one tier (the "individual" tier is the full battle
// script).
func tierProgram(tier string) (*sem.Program, error) {
	if tier == "individual" {
		return game.Compile()
	}
	src, ok := tierScripts[tier]
	if !ok {
		return nil, fmt.Errorf("benchfig: unknown tier %q", tier)
	}
	script, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return sem.Check(script, game.Schema(), game.Consts())
}

// fig1Row is one point of the expressiveness/#NPC trade-off illustration
// (paper Figure 1): the largest army each script tier sustains at 10
// ticks/second under each engine.
type fig1Row struct {
	tier     string
	mode     string
	maxUnits int
}

// fig1 measures the capacity frontier of every tier under both engines.
func (r *runner) fig1(budget time.Duration, lo, hi, measureTicks int) ([]fig1Row, error) {
	var rows []fig1Row
	for _, tier := range scriptTiers {
		prog, err := tierProgram(tier)
		if err != nil {
			return nil, err
		}
		tr := &runner{prog: prog, warmup: r.warmup}
		for _, mode := range []engine.Mode{engine.Naive, engine.Indexed} {
			n, err := tr.capacity(mode, budget, lo, hi, measureTicks)
			if err != nil {
				return nil, err
			}
			rows = append(rows, fig1Row{tier: tier, mode: mode.String(), maxUnits: n})
		}
	}
	return rows, nil
}

// writeFig1 renders the tier capacity table.
func writeFig1(w io.Writer, rows []fig1Row) {
	fmt.Fprintf(w, "%-12s %-8s %10s\n", "tier", "engine", "max units")
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %-8s %10d\n", row.tier, row.mode, row.maxUnits)
	}
}
