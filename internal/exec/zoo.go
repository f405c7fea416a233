package exec

// ZooProgram is one small SGL program exercising a single language or
// optimizer feature. The zoo is exported (not test-only) so other
// packages' differential suites can reuse it — notably the engine's
// serial-vs-parallel determinism tests, which must hold for every program
// shape, not just the battle simulation.
type ZooProgram struct {
	Name string
	Src  string
}

// Zoo is the script zoo: each program runs for several ticks' worth of
// random environments under every execution path (interpreter+naive,
// plan+naive, plan+indexed, and the engine's sharded parallel executor).
// Any divergence is a bug in translation, optimization, classification,
// an index structure, or the parallel merge order.
//
// The scripts reference only attributes present in both this package's
// test schema and the battle schema (key, player, unittype, posx, posy,
// health, cooldown, damage), so they compile against either.
var Zoo = []ZooProgram{
	{"or-condition-residual", `
aggregate Extremes(u) :=
  count(*)
  over e where (e.health <= 8 or e.health >= 25) and e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Extremes(u)) }`},

	{"asymmetric-range", `
aggregate Ahead(u) :=
  count(*) as n, sum(e.health) as hp
  over e where e.posx >= u.posx and e.posx <= u.posx + 12
    and e.posy >= u.posy - 3 and e.posy <= u.posy + 3
    and e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let a = Ahead(u)) perform Tag(u, a.n + a.hp / 100) }`},

	{"one-sided-minmax-falls-back", `
aggregate WeakestEast(u) :=
  min(e.health)
  over e where e.posx >= u.posx and e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) {
  (let w = WeakestEast(u)) { if w < 100 then perform Tag(u, w) }
}`},

	{"neq-partition-area-action", `
action Curse(u) :=
  on e where e.player <> u.player
    and e.posx >= u.posx - 5 and e.posx <= u.posx + 5
    and e.posy >= u.posy - 5 and e.posy <= u.posy + 5
  set damage = 1;
function main(u) { if u.cooldown = 0 then perform Curse(u) }`},

	{"mixed-output-classes", `
aggregate Recon(u) :=
  count(*) as n, argmin(e.health) as weak, avg(e.posx) as cx
  over e where e.posx >= u.posx - 10 and e.posx <= u.posx + 10
    and e.posy >= u.posy - 10 and e.posy <= u.posy + 10
    and e.player <> u.player;
action Hit(u, k) := on e where e.key = k and e.health > 0 set damage = 2;
function main(u) {
  (let r = Recon(u)) { if r.n > 0 and r.weak >= 0 then perform Hit(u, r.weak) }
}`},

	{"nested-aggregate-args", `
aggregate Spread(u) :=
  stddev(e.posx)
  over e where e.player = u.player;
aggregate Near(u, rad) :=
  count(*)
  over e where e.posx >= u.posx - rad and e.posx <= u.posx + rad
    and e.posy >= u.posy - rad and e.posy <= u.posy + rad;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Near(u, Spread(u) + 1)) }`},

	{"u-only-guard", `
aggregate CountAll(u) :=
  count(*)
  over e where u.cooldown = 0 and e.player <> u.player
    and e.posx >= u.posx - 8 and e.posx <= u.posx + 8
    and e.posy >= u.posy - 8 and e.posy <= u.posy + 8;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, CountAll(u)) }`},

	{"random-in-action-value", `
action Jolt(u, t) := on e where e.key = t set damage = Random(3) % 4;
aggregate NearestFoe(u) := nearestkey() as key over e where e.player <> u.player;
function main(u) {
  (let t = NearestFoe(u)) { if t >= 0 then perform Jolt(u, t) }
}`},

	{"global-extrema", `
aggregate Best(u) :=
  max(e.health) as top, argmax(e.health) as who,
  min(e.health) as low, argmin(e.health) as frail
  over e where e.player <> u.player;
action Hit(u, k) := on e where e.key = k set damage = 1;
function main(u) {
  (let b = Best(u)) {
    if b.who >= 0 then perform Hit(u, b.who);
    if b.frail >= 0 then perform Hit(u, b.frail)
  }
}`},

	{"multi-conjunct-greedy", `
aggregate Foes(u) :=
  count(*) as n, min(e.health) as low
  over e where e.posx >= u.posx - 9 and e.posx <= u.posx + 9
    and e.posy >= u.posy - 9 and e.posy <= u.posy + 9
    and e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) {
  (let f = Foes(u)) {
    if u.cooldown = 0 and f.n >= 1 and u.health > 3 and u.unittype <> 9 then
      perform Tag(u, f.low);
    if u.cooldown = 1 and u.health > 6 then
      perform Tag(u, f.n)
  }
}`},

	{"empty-world-guards", `
aggregate Foes(u) :=
  count(*)
  over e where e.player <> u.player and e.unittype = 7;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Foes(u)) }`},

	// Four definitions over one membership (partitioned by player, no
	// e-only filter): two windowed divisible ones with different payloads
	// share one range tree carrying their union, a probe-invariant one
	// reads the row-order fold, and a nearest-neighbour one the shared
	// kD-tree.
	{"shared-membership", `
aggregate Pack(u) :=
  count(*)
  over e where e.posx >= u.posx - 6 and e.posx <= u.posx + 6
    and e.posy >= u.posy - 6 and e.posy <= u.posy + 6
    and e.player = u.player;
aggregate Vigor(u) :=
  avg(e.health) as mean, stddev(e.health) as sd
  over e where e.posx >= u.posx - 9 and e.posx <= u.posx + 9
    and e.posy >= u.posy - 9 and e.posy <= u.posy + 9
    and e.player <> u.player;
aggregate Roster(u) :=
  avg(e.health) as mean, stddev(e.health) as sd
  over e where e.player = u.player;
aggregate Closest(u) := nearestkey() over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) {
  (let v = Vigor(u)) (let r = Roster(u)) {
    if Pack(u) > 2 then perform Tag(u, v.mean - r.mean + v.sd + r.sd);
    else perform Tag(u, Closest(u))
  }
}`},

	// Every way one unit reaches the same call twice in a tick: an
	// aggregate in an if/else guard (σφ and σ¬φ), a guard feeding two
	// performs, a record call split into a two-parameter action's
	// arguments, the same MIN/MAX call through a let in an inlined
	// function and a let at its caller — each answered once per row from
	// its call class's memo.
	{"repeated-calls", `
aggregate Crowd(u) :=
  count(*)
  over e where e.posx >= u.posx - 7 and e.posx <= u.posx + 7
    and e.posy >= u.posy - 7 and e.posy <= u.posy + 7
    and e.player <> u.player;
aggregate Heart(u) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.posx >= u.posx - 9 and e.posx <= u.posx + 9
    and e.posy >= u.posy - 9 and e.posy <= u.posy + 9
    and e.player = u.player;
aggregate Frail(u) :=
  min(e.health) as low, argmin(e.health) as who
  over e where e.posx >= u.posx - 5 and e.posx <= u.posx + 5
    and e.posy >= u.posy - 5 and e.posy <= u.posy + 5
    and e.player <> u.player;
action Hit(u, k) := on e where e.key = k set damage = 1;
action Tag(u, v) := on e where e.key = u.key set damage = v;
action Drift(u, tx, ty) := on e where e.key = u.key set damage = tx - ty;
function strike(u) {
  (let f = Frail(u)) { if f.who >= 0 then perform Hit(u, f.who) }
}
function main(u) {
  if Crowd(u) > 2 then perform Drift(u, Heart(u));
  else (let f = Frail(u)) {
    if f.low < 15 then perform strike(u);
    else perform Drift(u, (u.posx, u.posy) - Heart(u) * 2)
  };
  if Crowd(u) >= 1 and u.cooldown = 0 then { perform Tag(u, Crowd(u)); perform Hit(u, u.key) }
}`},

	// A world where answers carry from tick to tick (algebra's call memo
	// over a maintained provider) and every way one must not: healers
	// wound the enemy archers, knights and archers wound the healers, and
	// nobody walks. Nothing touches a knight, so calls over the knight
	// lines read clean partitions, and a knight's own row is clean: Reach,
	// a swept MIN/MAX call, carries — unless its radius, the answer of
	// Frail, moved. Frail reads the archers, rows whose health the healers
	// change; Lucky folds over the clean knights but draws Random; an
	// archer reads its own health, which changes while it stands still, in
	// Cover's window and, only in an output argument, in Gap.
	{"carried-answers", `
aggregate Lucky(u) :=
  sum(e.health + Random(1) % 3) as s
  over e where e.player <> u.player and e.unittype = 0;
aggregate Gap(u) :=
  sum(e.health - u.health) as g
  over e where e.player <> u.player and e.unittype = 0;
aggregate Cover(u) :=
  count(*)
  over e where e.posx >= u.posx - u.health and e.posx <= u.posx + u.health
    and e.posy >= u.posy - u.health and e.posy <= u.posy + u.health
    and e.player = u.player and e.unittype = 0;
aggregate Frail(u) :=
  min(e.health) as low
  over e where e.player = u.player and e.unittype = 1;
aggregate Reach(u, rad) :=
  argmin(e.health)
  over e where e.posx >= u.posx - rad and e.posx <= u.posx + rad
    and e.posy >= u.posy - rad and e.posy <= u.posy + rad
    and e.player = u.player and e.unittype = 0;
aggregate NearestHealer(u) := nearestkey() over e where e.player = u.player and e.unittype = 2;
aggregate NearestArcher(u) := nearestkey() over e where e.player <> u.player and e.unittype = 1;
action Hit(u, k, v) := on e where e.key = k set damage = v;
function main(u) {
  if u.unittype = 2 then perform Hit(u, NearestArcher(u), 1);
  if u.unittype = 1 then perform Hit(u, NearestHealer(u), (Gap(u) + Cover(u)) % 3 / 8);
  if u.unittype = 0 then
    (let f = Frail(u)) (let w = Reach(u, f % 5 + 3))
      perform Hit(u, NearestHealer(u), (Lucky(u) + f + w) % 3 / 8)
}`},
}
