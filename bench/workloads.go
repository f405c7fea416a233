package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"github.com/epicscale/sgl"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/metrics"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/server"
	"github.com/epicscale/sgl/internal/workload"
)

// patrolScript is the low-churn world: a garrison of knights and archers
// watches the opposing knight line (three aggregate probes per unit per
// tick over trees partitioned by player and unit type) while the healers
// — one unit in six under the daemon's fixed 3:2:1 mix — random-walk the
// map as scouts. Nothing else ever moves, fights or dies, so between two
// ticks only the scouts' rows change: the setting index maintenance was
// built for. Copied from sentryScript in the root bench_test.go, which a
// non-test package cannot import.
const patrolScript = `
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

// zoneQuery is the spectator's question on every workload: activity and
// total health inside a window — the aggregate the repo's own fan-out
// experiment and load generator serve, so numbers stay comparable.
const zoneQuery = metrics.FanoutQuery

// moraleQuery is the push subscriber's maintained answer: a divisible sum
// (patched from the tick's delta, never rederived) over a column neither
// script nor game mechanics ever write, so it changes exactly when an
// actor's command lands.
const moraleQuery = `aggregate Morale(u) := sum(e.morale) as m over e;`

// density is every world's grid occupancy: the paper's Figure 10 setting.
const density = 0.01

// world is the part of a workload the program under test receives as a
// create request; the end-to-end run and the traced run build the same
// world from it.
type world struct {
	Script      string // "" = the built-in battle script
	Units       int
	Incremental bool
	Compact     bool
}

// createRequest is the world's create body. Every world runs workers:1,
// so the numbers measure the program and not the scheduler's luck at
// placing shards on two cores.
func (w world) createRequest(name string, seed uint64) server.CreateRequest {
	return server.CreateRequest{
		Name: name, Script: w.Script, Units: w.Units, Density: density, Seed: seed,
		Workers: 1, Incremental: w.Incremental, Compact: w.Compact,
	}
}

// armySpec is the army the daemon generates for this world.
func (w world) armySpec(seed uint64) sgl.ArmySpec {
	return sgl.ArmySpec{Units: w.Units, Density: density, Seed: seed, Formation: workload.BattleLines}
}

// side is the world's grid edge.
func (w world) side() float64 { return w.armySpec(0).Side() }

// source is the SGL text the world runs.
func (w world) source() string {
	if w.Script == "" {
		return game.Script
	}
	return w.Script
}

// engineOptions are the options the daemon's registry builds this world
// with, so a standalone engine is the same simulation.
func (w world) engineOptions(seed uint64) sgl.EngineOptions {
	return sgl.EngineOptions{
		Mode: sgl.Indexed, Categoricals: game.Categoricals(), Seed: seed,
		Side: w.side(), MoveSpeed: 1,
		Workers: 1, Incremental: w.Incremental, CompactJournal: w.Compact,
	}
}

// standalone builds the world in this process, outside any server: the
// reference the served world's checkpoint bytes are held against, and the
// engine the traced run takes apart.
func (w world) standalone(seed uint64) (*sgl.Session, error) {
	prog, err := sgl.CompileScript(w.source(), sgl.BattleSchema(), sgl.BattleConsts())
	if err != nil {
		return nil, fmt.Errorf("compile world script: %w", err)
	}
	eng, err := sgl.NewEngine(prog, sgl.NewBattleMechanics(), sgl.GenerateArmy(w.armySpec(seed)), w.engineOptions(seed))
	if err != nil {
		return nil, err
	}
	return sgl.NewSession(eng), nil
}

// workloadSpec is one traffic mix against one world.
type workloadSpec struct {
	Name  string
	Why   string
	World world
	// TickRate is the clock target in ticks/s; 0 runs uncapped.
	TickRate float64
	// QueryRate and CommandRate are the open-loop rates of the spectator
	// and the actor connection, in requests/s.
	QueryRate   float64
	CommandRate float64
	// Gateway puts sglgw and two sgld nodes in front of the world and
	// adds the migration phase after the window.
	Gateway bool
}

// workloads are the benchmark's four traffic mixes. Names are fixed:
// every later change is judged against results filed under them. Each
// stresses different layers (see README.md for the interaction map); the
// two tick workloads pair a rebuild-every-tick world with a
// maintained-under-updates one, so a change that trades one for the other
// shows as opposite moves.
var workloads = []workloadSpec{
	{
		Name:  "battle-tick",
		Why:   "high-churn 2000-unit battle, uncapped: every index rebuilds each tick, so algebra and exec carry the result",
		World: world{Units: 2000}, QueryRate: 10, CommandRate: 100,
	},
	{
		Name:  "sentry-tick",
		Why:   "low-churn 10000-unit patrol, incremental+compact, uncapped: indexes are maintained, so the tick's fixed costs dominate",
		World: world{Script: patrolScript, Units: 10000, Incremental: true, Compact: true}, QueryRate: 10, CommandRate: 200,
	},
	{
		Name:  "spectate-serve",
		Why:   "1500-unit battle capped at the paper's 10 ticks/s under 500 q/s + 200 cmd/s: server path and tick write-lock set read latency",
		World: world{Units: 1500}, TickRate: 10, QueryRate: 500, CommandRate: 200,
	},
	{
		Name:  "routed-push",
		Why:   "sglgw in front of two nodes, light 20 ticks/s patrol world, then 10 live migrations: cluster hop, SSE push and checkpoint codec carry the result",
		World: world{Script: patrolScript, Units: 2000, Incremental: true}, TickRate: 20, QueryRate: 100, CommandRate: 200,
		Gateway: true,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// ---------------------------------------------------------------------------
// Seeded traffic

// The repo's counter-based generator doubles as the traffic source: a
// draw is a pure function of (seed, stream, index), so request i's content
// can be regenerated from any index and one seed always yields the same
// schedule. The streams below take the place of its unit-key argument.
const (
	streamKeys int64 = iota + 1
	streamZoneX
	streamZoneY
	streamCommandKey
)

const (
	// actorKeys is how many distinct units the actor's commands touch. A
	// small fixed set keeps the world's evolution close to the untouched
	// simulation (morale feeds the battle script's flee rule) while still
	// dirtying different rows tick to tick.
	actorKeys = 16
	// primedMorale is the value every actor key is set to before the
	// clock starts, so the subscriber's baseline sum is known.
	primedMorale = 50
	// firstMorale is the first value the actor writes; values then rise
	// by one per command, so every command strictly raises the sum.
	firstMorale = 100
	// zoneRadius is the spectator window's half-extent.
	zoneRadius = 12

	actorOrigin = "bench-actor"
	primeOrigin = "bench-prime"
)

// traffic generates one run's requests for one session from the seed.
type traffic struct {
	seed    uint64
	session string
	w       world
}

// keys are the units the actor touches: actorKeys distinct keys drawn
// from the seed (unit keys are 0…Units-1 and survive resurrection).
func (t traffic) keys() []int64 {
	src := rng.New(t.seed)
	keys := make([]int64, 0, actorKeys)
	seen := map[int64]bool{}
	for i := int64(0); len(keys) < actorKeys; i++ {
		k := int64(src.Intn(0, streamKeys, i, t.w.Units))
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// queries is the spectator stream: the Zone aggregate over a window whose
// centre moves uniformly over the map.
func (t traffic) queries(rate float64) schedule {
	src, _ := json.Marshal(zoneQuery)
	prefix := `{"src":` + string(src) + `,"args":[`
	path := "/v1/sessions/" + t.session + "/query"
	side := t.w.side()
	return schedule{Rate: rate, Gen: func(i int) request {
		x, y := t.zone(i, side)
		b := append([]byte(prefix), strconv.FormatFloat(x, 'f', -1, 64)...)
		b = append(b, ',')
		b = append(b, strconv.FormatFloat(y, 'f', -1, 64)...)
		b = append(b, ',')
		b = strconv.AppendInt(b, zoneRadius, 10)
		b = append(b, "]}"...)
		return request{Method: "POST", Path: path, Body: b}
	}}
}

// zone is query i's window centre, on whole grid squares.
func (t traffic) zone(i int, side float64) (x, y float64) {
	src := rng.New(t.seed)
	return math.Floor(src.Float64(0, streamZoneX, int64(i)) * side), math.Floor(src.Float64(0, streamZoneY, int64(i)) * side)
}

// command is the actor's i-th write: which key, which value.
func (t traffic) command(i int, keys []int64) (key int64, val float64) {
	return keys[rng.New(t.seed).Intn(0, streamCommandKey, int64(i), len(keys))], float64(firstMorale + i)
}

// commands is the actor stream: one set-morale per request, values
// strictly increasing.
func (t traffic) commands(rate float64) schedule {
	keys := t.keys()
	path := "/v1/sessions/" + t.session + "/commands"
	return schedule{Rate: rate, Gen: func(i int) request {
		k, v := t.command(i, keys)
		body := fmt.Sprintf(`{"origin":%q,"commands":[{"op":"set","key":%d,"col":"morale","val":%g}]}`, actorOrigin, k, v)
		return request{Method: "POST", Path: path, Body: []byte(body)}
	}}
}

// sums returns, for the first n commands applied in order on top of the
// primed baseline base, the morale sum after each: sums[i] is the least
// subscriber value that proves command i (and every one before it)
// reached the world.
func (t traffic) sums(base float64, n int) []float64 {
	keys := t.keys()
	cur := map[int64]float64{}
	for _, k := range keys {
		cur[k] = primedMorale
	}
	out := make([]float64, n)
	s := base
	for i := 0; i < n; i++ {
		k, v := t.command(i, keys)
		s += v - cur[k]
		cur[k] = v
		out[i] = s
	}
	return out
}
