// Package game implements the battle-simulation case study of paper
// Section 3.2: a two-player RTS combat with three unit types —
//
//   - Knights: melee, armored (high AC, damage reduction), hard-hitting
//     (1d8+3), short reach;
//   - Archers: ranged (large attack range), unarmored, 1d6 arrows;
//   - Healers: project a nonstackable healing aura over nearby friendlies
//     ("a unit can only be healed once per clock tick").
//
// Combat follows the d20 System: attack rolls of 1d20 + attack bonus
// against the defender's armor class, natural 20 always hits, natural 1
// always misses, damage dice reduced by the defender's damage reduction
// with a 1-point floor. Visibility follows the d20 convention of large
// sight ranges, which is exactly what makes aggregates expensive for the
// naive engine.
//
// The per-unit SGL scripts realize the paper's coordination behaviors:
// archers keep the knight line between themselves and the enemy centroid;
// knights close ranks when their formation spreads beyond two standard
// deviations; everyone flees when locally outnumbered beyond morale; and
// healers chase and heal the most wounded friendly unit.
package game

import (
	"fmt"
	"math"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Unit type codes stored in the unittype attribute.
const (
	Knight = 0
	Archer = 1
	Healer = 2
)

// Schema returns the battle simulation's environment schema — the paper's
// Eq. (1) extended with the d20 combat attributes.
func Schema() *table.Schema {
	return table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "player", Kind: table.Const},
		table.Attr{Name: "unittype", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "health", Kind: table.Const},
		table.Attr{Name: "maxhealth", Kind: table.Const},
		table.Attr{Name: "ac", Kind: table.Const},     // armor class
		table.Attr{Name: "dr", Kind: table.Const},     // damage reduction
		table.Attr{Name: "attack", Kind: table.Const}, // attack bonus
		table.Attr{Name: "dmgsides", Kind: table.Const},
		table.Attr{Name: "dmgbonus", Kind: table.Const},
		table.Attr{Name: "range", Kind: table.Const}, // attack reach
		table.Attr{Name: "sight", Kind: table.Const}, // visibility half-extent
		table.Attr{Name: "morale", Kind: table.Const},
		table.Attr{Name: "cooldown", Kind: table.Const},
		table.Attr{Name: "weaponused", Kind: table.Max},
		table.Attr{Name: "movevect_x", Kind: table.Sum},
		table.Attr{Name: "movevect_y", Kind: table.Sum},
		table.Attr{Name: "damage", Kind: table.Sum},
		table.Attr{Name: "inaura", Kind: table.Max},
	)
}

// Consts returns the game constants referenced by the scripts.
func Consts() map[string]float64 {
	return map[string]float64{
		"_TIME_RELOAD":  2, // cooldown ticks after attacking
		"_HEAL_AURA":    3, // hit points restored by a healing aura
		"_HEALER_RANGE": 6, // aura half-extent
		"_SPREAD_LIMIT": 4, // knights close ranks beyond this spread
		"_PACK_COUNT":   3, // knights wanted within two std deviations
	}
}

// Categoricals are the low-volatility partition attributes of the battle
// schema (the paper's "6 range trees — one per player/unit type
// combination" layering).
func Categoricals() []string { return []string{"player", "unittype"} }

// Script is the full SGL content of the battle simulation: the aggregate
// and action definitions of the paper's Figures 4 and 5 plus the
// coordination behaviors of Section 3.2. On each tick every unit evaluates
// roughly ten aggregate queries, as in the paper's experimental setup.
const Script = `
# ---- aggregates -----------------------------------------------------------

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

aggregate FriendlyKnightLine(u) :=
  count(*) as n, avg(e.posx) as x, avg(e.posy) as y
  over e where e.player = u.player and e.unittype = 0;

aggregate KnightFormation(u) :=
  avg(e.posx) as cx, avg(e.posy) as cy,
  stddev(e.posx) as sx, stddev(e.posy) as sy
  over e where e.player = u.player and e.unittype = 0;

aggregate KnightsWithin(u, r) :=
  count(*)
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r
    and e.player = u.player and e.unittype = 0;

aggregate WeakestEnemyInReach(u) :=
  argmin(e.health) as key
  over e where e.posx >= u.posx - u.range and e.posx <= u.posx + u.range
    and e.posy >= u.posy - u.range and e.posy <= u.posy + u.range
    and e.player <> u.player;

aggregate NearestEnemy(u) :=
  nearestkey() as key, nearestdist() as dist,
  nearestx() as x, nearesty() as y
  over e where e.player <> u.player;

aggregate MostWoundedFriend(u) :=
  argmax(e.maxhealth - e.health) as key, max(e.maxhealth - e.health) as missing
  over e where e.player = u.player and e.health < e.maxhealth;

aggregate WoundedFriendsNear(u, r) :=
  count(*)
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r
    and e.player = u.player and e.health < e.maxhealth;

aggregate FriendCentroid(u) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.player = u.player;

# ---- actions ----------------------------------------------------------------

action Strike(u, target_key, roll, dmgroll) :=
  on e where e.key = target_key
    and (roll = 20 or (roll <> 1 and roll + u.attack >= e.ac))
  set damage = max(1, dmgroll - e.dr);

action MarkAttack(u) :=
  on e where e.key = u.key
  set weaponused = 1;

action MoveToward(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;

action MoveAway(u, fx, fy) :=
  on e where e.key = u.key
  set movevect_x = u.posx - fx, movevect_y = u.posy - fy;

action HealAura(u) :=
  on e where u.player = e.player
    and e.posx >= u.posx - _HEALER_RANGE and e.posx <= u.posx + _HEALER_RANGE
    and e.posy >= u.posy - _HEALER_RANGE and e.posy <= u.posy + _HEALER_RANGE
  set inaura = _HEAL_AURA;

# ---- behaviors ---------------------------------------------------------------

function attackWeakest(u) {
  (let w = WeakestEnemyInReach(u)) {
    if w >= 0 then {
      (let roll = Random(1) % 20 + 1)
      (let dmgroll = Random(2) % u.dmgsides + 1 + u.dmgbonus) {
        perform Strike(u, w, roll, dmgroll);
        perform MarkAttack(u)
      }
    }
  }
}

function knightMain(u) {
  (let seen = CountEnemiesInSight(u)) {
    if seen > CountFriendsInSight(u) * 2 + u.morale then
      perform MoveAway(u, EnemyCentroidInSight(u));
    else if u.cooldown = 0 then {
      (let w = WeakestEnemyInReach(u)) {
        if w >= 0 then perform attackWeakest(u);
        else (let form = KnightFormation(u)) {
          (let spread = max(form.sx, form.sy)) {
            if spread > _SPREAD_LIMIT and KnightsWithin(u, spread * 2) < _PACK_COUNT then
              perform MoveToward(u, form.cx, form.cy);  # close ranks
            else if seen > 0 then
              perform MoveToward(u, EnemyCentroidInSight(u));
            else (let foe = NearestEnemy(u)) {
              if foe.key >= 0 then perform MoveToward(u, foe.x, foe.y)
            }
          }
        }
      }
    }
  }
}

function archerMain(u) {
  (let seen = CountEnemiesInSight(u)) {
    if seen > CountFriendsInSight(u) * 2 + u.morale then
      perform MoveAway(u, EnemyCentroidInSight(u));
    else {
      if u.cooldown = 0 then perform attackWeakest(u);
      if seen > 0 then (let line = FriendlyKnightLine(u)) {
        if line.n > 0 then
          # Stand so the knights sit between the archers and the enemy:
          # cover = 2·knightCentroid − enemyCentroid.
          perform MoveToward(u, (line.x, line.y) * 2 - EnemyCentroidInSight(u))
      };
      if seen = 0 then (let foe = NearestEnemy(u)) {
        if foe.key >= 0 then perform MoveToward(u, foe.x, foe.y)
      }
    }
  }
}

function healerMain(u) {
  (let seen = CountEnemiesInSight(u)) {
    if seen > CountFriendsInSight(u) + u.morale then
      perform MoveAway(u, EnemyCentroidInSight(u));
    else {
      if WoundedFriendsNear(u, _HEALER_RANGE) > 0 and u.cooldown = 0 then {
        perform HealAura(u);
        perform MarkAttack(u)
      };
      (let w = MostWoundedFriend(u)) {
        if w.key >= 0 and w.missing > 2 then
          perform MoveToward(u, FriendCentroid(u));
        else if seen = 0 then (let foe = NearestEnemy(u)) {
          if foe.dist > _HEALER_RANGE * 2 and foe.key >= 0 then
            perform MoveToward(u, FriendCentroid(u))
        }
      }
    }
  }
}

function main(u) {
  if u.unittype = 0 then perform knightMain(u);
  else if u.unittype = 1 then perform archerMain(u);
  else perform healerMain(u)
}
`

// PatrolScript is the low-churn world over the battle schema: a garrison
// of knights and archers watches the opposing knight line (three
// aggregate probes per unit per tick over structures partitioned by
// player and unit type) while the healers random-walk the map as scouts.
// Nothing else moves, fights or dies, so between two ticks only the
// scouts' rows change — the setting incremental index maintenance is
// built for, and the script of the sentry benchmarks.
const PatrolScript = `
aggregate WatchEnemyKnights(u) :=
  count(*) as n, sum(e.health) as hp, avg(e.posx) as cx
  over e where e.posx >= u.posx - u.sight and e.posx <= u.posx + u.sight
    and e.posy >= u.posy - u.sight and e.posy <= u.posy + u.sight
    and e.player <> u.player and e.unittype = 0;

aggregate OwnLine(u) :=
  count(*) as n, avg(e.posx) as cx, avg(e.posy) as cy, stddev(e.posx) as sx
  over e where e.player = u.player and e.unittype = 0;

aggregate NearestScout(u) :=
  nearestkey() as key
  over e where e.player = u.player and e.unittype = 2;

action Patrol(u, tx, ty) :=
  on e where e.key = u.key
  set movevect_x = tx - u.posx, movevect_y = ty - u.posy;

function main(u) {
  (let w = WatchEnemyKnights(u))
  (let l = OwnLine(u)) {
    if u.unittype = 2 then
      perform Patrol(u, u.posx + Random(1) % 9 - 4, u.posy + Random(2) % 9 - 4);
    else { if w.n + l.n + NearestScout(u) < -1 then perform Patrol(u, l.cx, l.cy) }
  }
}
`

// Compile parses and checks the battle script against the battle schema.
func Compile() (*sem.Program, error) {
	script, err := parser.Parse(Script)
	if err != nil {
		return nil, fmt.Errorf("game: parse: %w", err)
	}
	prog, err := sem.Check(script, Schema(), Consts())
	if err != nil {
		return nil, fmt.Errorf("game: check: %w", err)
	}
	return prog, nil
}

// Stats describe one unit type's d20 block.
type Stats struct {
	MaxHealth float64
	AC        float64
	DR        float64
	Attack    float64
	DmgSides  float64
	DmgBonus  float64
	Range     float64
	Sight     float64
	Morale    float64
}

// roster returns the d20 stat blocks by unit type code.
func roster() [3]Stats {
	return [3]Stats{
		Knight: {MaxHealth: 30, AC: 18, DR: 2, Attack: 5, DmgSides: 8, DmgBonus: 3, Range: 2, Sight: 16, Morale: 8},
		Archer: {MaxHealth: 18, AC: 13, DR: 0, Attack: 4, DmgSides: 6, DmgBonus: 0, Range: 12, Sight: 16, Morale: 5},
		Healer: {MaxHealth: 16, AC: 11, DR: 0, Attack: 0, DmgSides: 4, DmgBonus: 0, Range: 1, Sight: 16, Morale: 4},
	}
}

// NewUnit builds an environment row for one unit.
func NewUnit(key int64, player int, unitType int, pos geom.Point) []float64 {
	st := roster()[unitType]
	return []float64{
		float64(key), float64(player), float64(unitType),
		pos.X, pos.Y,
		st.MaxHealth, st.MaxHealth,
		st.AC, st.DR, st.Attack, st.DmgSides, st.DmgBonus,
		st.Range, st.Sight, st.Morale,
		0,          // cooldown
		0, 0, 0, 0, // weaponused, movevect_x, movevect_y, damage
		0, // inaura
	}
}

// Mechanics implements engine.Game: the post-processing query of the
// paper's Example 4.1 specialized to the battle schema.
type Mechanics struct {
	schema   *table.Schema
	health   int
	maxHP    int
	cooldown int
	wUsed    int
	mvx, mvy int
	damage   int
	aura     int
	reload   float64
}

// NewMechanics builds the post-processor for the battle schema.
func NewMechanics() *Mechanics {
	s := Schema()
	return &Mechanics{
		schema:   s,
		health:   s.MustCol("health"),
		maxHP:    s.MustCol("maxhealth"),
		cooldown: s.MustCol("cooldown"),
		wUsed:    s.MustCol("weaponused"),
		mvx:      s.MustCol("movevect_x"),
		mvy:      s.MustCol("movevect_y"),
		damage:   s.MustCol("damage"),
		aura:     s.MustCol("inaura"),
		reload:   Consts()["_TIME_RELOAD"],
	}
}

// ApplyEffects performs the post-processing step:
//
//	health   ← min(maxhealth, health − damage + aura)
//	cooldown ← max(0, cooldown − 1) + weaponused·_TIME_RELOAD
//	movement ← the summed movement vector, handed to the movement phase
//
// and reports death when health reaches 0 ("when it is reduced to 0, the
// unit is dead").
func (m *Mechanics) ApplyEffects(row []float64, effects []float64) (geom.Vec, bool) {
	dmg := nonIdentity(effects[m.damage], 0)
	aura := nonIdentity(effects[m.aura], 0)
	if aura < 0 {
		aura = 0
	}
	h := row[m.health] - dmg + aura
	if h > row[m.maxHP] {
		h = row[m.maxHP] // "never restored beyond the initial health"
	}
	row[m.health] = h

	used := nonIdentity(effects[m.wUsed], 0)
	cd := row[m.cooldown] - 1
	if cd < 0 {
		cd = 0
	}
	row[m.cooldown] = cd + used*m.reload

	mv := geom.Vec{X: nonIdentity(effects[m.mvx], 0), Y: nonIdentity(effects[m.mvy], 0)}
	return mv, h > 0
}

// Respawn restores a freshly killed unit to full health with no cooldown;
// the engine then places it at a random free square (the Section 6 rule
// that keeps the population — and hence the measured workload — constant).
func (m *Mechanics) Respawn(row []float64, st *rng.Stream) {
	row[m.health] = row[m.maxHP]
	row[m.cooldown] = 0
}

// nonIdentity maps an untouched fold identity (±Inf) to the game default.
func nonIdentity(v, def float64) float64 {
	if math.IsInf(v, 0) {
		return def
	}
	return v
}
