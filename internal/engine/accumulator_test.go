package engine

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/grid"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

func accSchema(t *testing.T) *table.Schema {
	t.Helper()
	return table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "hp", Kind: table.Const},
		table.Attr{Name: "dmg", Kind: table.Sum},
		table.Attr{Name: "aura", Kind: table.Max},
		table.Attr{Name: "slow", Kind: table.Min},
	)
}

// A fresh accumulator must hold every effect column's fold identity and
// leave const columns at zero.
func TestAccumulatorIdentities(t *testing.T) {
	s := accSchema(t)
	acc := newAccumulator(s, 3)
	for i := 0; i < 3; i++ {
		if got := acc.vals[i][s.MustCol("dmg")]; got != 0 {
			t.Fatalf("sum identity: got %v, want 0", got)
		}
		if got := acc.vals[i][s.MustCol("aura")]; !math.IsInf(got, -1) {
			t.Fatalf("max identity: got %v, want -Inf", got)
		}
		if got := acc.vals[i][s.MustCol("slow")]; !math.IsInf(got, 1) {
			t.Fatalf("min identity: got %v, want +Inf", got)
		}
		for _, c := range []string{"key", "hp"} {
			if got := acc.vals[i][s.MustCol(c)]; got != 0 {
				t.Fatalf("const column %s initialized to %v", c, got)
			}
		}
	}
}

// fold must combine with the column's tagged operator: + for Sum,
// max/min selection for the nonstackable kinds.
func TestAccumulatorFoldSemantics(t *testing.T) {
	s := accSchema(t)
	acc := newAccumulator(s, 1)
	dmg, aura, slow := s.MustCol("dmg"), s.MustCol("aura"), s.MustCol("slow")

	acc.fold(0, dmg, 3)
	acc.fold(0, dmg, 4.5)
	if got := acc.vals[0][dmg]; got != 7.5 {
		t.Fatalf("sum fold: got %v, want 7.5", got)
	}
	acc.fold(0, aura, 2)
	acc.fold(0, aura, 1) // lower value must not stack or win
	if got := acc.vals[0][aura]; got != 2 {
		t.Fatalf("max fold: got %v, want 2", got)
	}
	acc.fold(0, slow, 5)
	acc.fold(0, slow, 9)
	if got := acc.vals[0][slow]; got != 5 {
		t.Fatalf("min fold: got %v, want 5", got)
	}
}

// Folding into a const column is a programming error: const attributes
// have no fold operator (⊕ groups on them), so the schema must reject the
// attempt loudly rather than corrupt unit state.
func TestAccumulatorConstFoldRejected(t *testing.T) {
	s := accSchema(t)
	acc := newAccumulator(s, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("folding into a const column must panic")
		}
	}()
	acc.fold(0, s.MustCol("hp"), 1)
}

// foldRow folds every effect column at once and must leave const columns
// (unit identity and state) untouched.
func TestAccumulatorFoldRow(t *testing.T) {
	s := accSchema(t)
	acc := newAccumulator(s, 2)
	eff := make([]float64, s.NumAttrs())
	eff[s.MustCol("key")] = 42 // const columns of an effect row are ignored
	eff[s.MustCol("dmg")] = 2
	eff[s.MustCol("aura")] = 3
	eff[s.MustCol("slow")] = 1
	acc.foldRow(1, eff)
	acc.foldRow(1, eff)
	if got := acc.vals[1][s.MustCol("dmg")]; got != 4 {
		t.Fatalf("dmg after two foldRows: got %v, want 4", got)
	}
	if got := acc.vals[1][s.MustCol("aura")]; got != 3 {
		t.Fatalf("aura after two foldRows: got %v, want 3", got)
	}
	if got := acc.vals[1][s.MustCol("slow")]; got != 1 {
		t.Fatalf("slow after two foldRows: got %v, want 1", got)
	}
	if got := acc.vals[1][s.MustCol("key")]; got != 0 {
		t.Fatalf("const column mutated by foldRow: %v", got)
	}
	// Row 0 must be untouched (rows are slices of one flat backing array;
	// a stride bug would bleed folds across rows).
	if got := acc.vals[0][s.MustCol("dmg")]; got != 0 {
		t.Fatalf("foldRow bled into neighbouring row: %v", got)
	}
}

// Effects fold for every unit this tick — including units that die from
// those very effects. Death is decided by the post-processing query
// *after* accumulation, so a unit at 1 hp taking lethal damage still has
// its full combined effect row, and the engine resurrects it afterwards.
func TestFoldRowOnDyingUnits(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 60, Indexed, 31, nil)
	if err := e.Run(40); err != nil {
		t.Fatal(err)
	}
	if e.Stats.Deaths == 0 {
		t.Skip("no deaths in 40 ticks; cannot exercise the dead-unit path")
	}
	// The resurrection rule keeps population constant and no corpse stays.
	s := game.Schema()
	if e.Env().Len() != 60 {
		t.Fatalf("population drifted to %d", e.Env().Len())
	}
	for _, row := range e.Env().Rows {
		if row[s.MustCol("health")] <= 0 {
			t.Fatal("dead unit survived resurrection")
		}
	}
}

// ---------------------------------------------------------------------------
// movementPhase world-clamping edge cases

// movementPhase drives the movement stage as a tick does, from given
// move vectors and death flags: every row planned, then the claim sweep.
func movementPhase(e *Engine, moves []geom.Vec, dead []bool) {
	e.plans, e.dead = make([]movePlan, len(moves)), make([]bool, len(moves))
	for i, mv := range moves {
		e.planMove(i, mv, !dead[i])
	}
	e.move()
}

// moveEngine builds a minimal battle-schema engine with units at explicit
// positions, for driving movementPhase directly.
func moveEngine(t *testing.T, side float64, pos [][2]float64) *Engine {
	return moveEngineSpeed(t, side, 1, pos)
}

func moveEngineSpeed(t *testing.T, side, speed float64, pos [][2]float64) *Engine {
	t.Helper()
	prog := battleProg(t)
	s := game.Schema()
	env := table.New(s, len(pos))
	for i, p := range pos {
		row := make([]float64, s.NumAttrs())
		row[s.MustCol("key")] = float64(i + 1)
		row[s.MustCol("posx")], row[s.MustCol("posy")] = p[0], p[1]
		row[s.MustCol("health")] = 10
		row[s.MustCol("maxhealth")] = 10
		env.Append(row)
	}
	e, err := New(prog, game.NewMechanics(), env, Options{
		Mode:         Indexed,
		Categoricals: game.Categoricals(),
		Side:         side,
		MoveSpeed:    speed,
		Workers:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func unitPos(e *Engine, i int) (float64, float64) {
	s := game.Schema()
	row := e.Env().Rows[i]
	return row[s.MustCol("posx")], row[s.MustCol("posy")]
}

// A move pushing past the world edge clamps onto it; the unit must never
// leave [0, Side).
func TestMovementClampsToWorld(t *testing.T) {
	e := moveEngine(t, 8, [][2]float64{{0, 0}, {7, 7}})
	dead := []bool{false, false}

	// Unit 0 tries to leave through the origin corner: the clamped
	// candidate is its own square, which always succeeds.
	movementPhase(e, []geom.Vec{{X: -5, Y: -5}, {}}, dead)
	if x, y := unitPos(e, 0); x != 0 || y != 0 {
		t.Fatalf("unit 0 escaped low edge: %v,%v", x, y)
	}

	// Unit 1 tries to leave through the far corner: clamped to just under
	// Side, still inside its square.
	movementPhase(e, []geom.Vec{{}, {X: 5, Y: 5}}, dead)
	x, y := unitPos(e, 1)
	if x >= 8 || y >= 8 || x < 7 || y < 7 {
		t.Fatalf("unit 1 not clamped to far edge: %v,%v", x, y)
	}
	if e.Stats.MovesBlocked != 0 {
		t.Fatalf("edge clamping must not count as blocked, got %d", e.Stats.MovesBlocked)
	}
}

// In a degenerate 1×1 world every candidate collapses to the only square.
func TestMovementDegenerateWorld(t *testing.T) {
	e := moveEngine(t, 1, [][2]float64{{0, 0}})
	movementPhase(e, []geom.Vec{{X: 3, Y: -2}}, []bool{false})
	if x, y := unitPos(e, 0); math.Floor(x) != 0 || math.Floor(y) != 0 {
		t.Fatalf("unit left the only square: %v,%v", x, y)
	}
}

// A fully surrounded unit whose step and both slides are occupied is
// blocked and stays put.
func TestMovementBlockedBySlides(t *testing.T) {
	// Mover at (1,1); occupiers at (2,2) (full step), (2,1) (x-slide),
	// (1,2) (y-slide). MoveSpeed 2 keeps the diagonal step a full square.
	e := moveEngineSpeed(t, 4, 2, [][2]float64{{1, 1}, {2, 2}, {2, 1}, {1, 2}})
	moves := []geom.Vec{{X: 1, Y: 1}, {}, {}, {}}
	dead := []bool{false, false, false, false}
	movementPhase(e, moves, dead)
	if x, y := unitPos(e, 0); x != 1 || y != 1 {
		t.Fatalf("blocked unit moved to %v,%v", x, y)
	}
	if e.Stats.MovesBlocked != 1 {
		t.Fatalf("MovesBlocked = %d, want 1", e.Stats.MovesBlocked)
	}
}

// The slide fallback: full step occupied, x-slide free.
func TestMovementSlidesAroundObstacle(t *testing.T) {
	e := moveEngineSpeed(t, 4, 2, [][2]float64{{1, 1}, {2, 2}})
	moves := []geom.Vec{{X: 1, Y: 1}, {}}
	dead := []bool{false, false}
	movementPhase(e, moves, dead)
	x, y := unitPos(e, 0)
	if !(x == 2 && y == 1) {
		t.Fatalf("expected x-slide to (2,1), got (%v,%v)", x, y)
	}
	if e.Stats.Moves != 1 {
		t.Fatalf("Moves = %d, want 1", e.Stats.Moves)
	}
}

// Dead units never move, whatever their move vector says.
func TestMovementSkipsDead(t *testing.T) {
	e := moveEngine(t, 4, [][2]float64{{1, 1}})
	movementPhase(e, []geom.Vec{{X: 1, Y: 0}}, []bool{true})
	if x, y := unitPos(e, 0); x != 1 || y != 1 {
		t.Fatalf("dead unit moved to %v,%v", x, y)
	}
	if e.Stats.Moves != 0 || e.Stats.MovesBlocked != 0 {
		t.Fatal("dead unit counted in move stats")
	}
}

// MoveSpeed clamps the step length, not each axis independently: a long
// diagonal request shrinks to a unit-length vector.
func TestMovementSpeedClamp(t *testing.T) {
	e := moveEngine(t, 16, [][2]float64{{8, 8}})
	movementPhase(e, []geom.Vec{{X: 30, Y: 40}}, []bool{false})
	x, y := unitPos(e, 0)
	dx, dy := x-8, y-8
	if d := math.Hypot(dx, dy); d > 1+1e-9 {
		t.Fatalf("moved %v > MoveSpeed 1", d)
	}
}

// ---------------------------------------------------------------------------
// The occupancy table carried across ticks

// refilled is the occupancy table the phases used to rebuild every time:
// every row placed in row order, held by its row index.
func refilled(e *Engine) *grid.Occupancy {
	occ := grid.NewOccupancy(e.env.Len())
	for i, row := range e.env.Rows {
		occ.Place(row[e.posX], row[e.posY], int32(i))
	}
	return occ
}

// checkCarried fails unless the engine's carried table — when it claims
// to be in sync — holds exactly the squares a row-order refill would.
func checkCarried(t *testing.T, e *Engine, when string) {
	t.Helper()
	if !e.occ.exact {
		return
	}
	want := refilled(e)
	if got := e.occ.taken.Size(); got != want.Size() {
		t.Fatalf("%s: the carried table holds %d squares, a refill %d", when, got, want.Size())
	}
	for y := 0; y < int(e.opts.Side); y++ {
		for x := 0; x < int(e.opts.Side); x++ {
			gk, gok := e.occ.taken.Occupied(float64(x), float64(y))
			wk, wok := want.Occupied(float64(x), float64(y))
			if gk != wk || gok != wok {
				t.Fatalf("%s: square (%d, %d) held by %d (%v) in the carried table, %d (%v) after a refill", when, x, y, gk, gok, wk, wok)
			}
		}
	}
}

// shovingGame is the battle mechanics with a unit that moves itself in
// ApplyEffects, outside the movement stage: unit 0, one square east a
// tick while the world lasts. shoves counts the moves (Workers 1).
type shovingGame struct {
	Game
	kc, px int
	side   float64
	shoves *int
}

func (g *shovingGame) ApplyEffects(row, effects []float64) (geom.Vec, bool) {
	if row[g.kc] == 0 && row[g.px]+1 < g.side {
		row[g.px]++
		*g.shoves++
	}
	return g.Game.ApplyEffects(row, effects)
}

// runAgainstRefill ticks e beside a twin that forgets its carried table
// before every tick — the old refill-every-phase behaviour — and requires
// identical worlds after every tick. cmds, when not nil, gives the
// commands both are sent before each tick.
func runAgainstRefill(t *testing.T, e, twin *Engine, ticks int, cmds func(tick int) []Command) {
	t.Helper()
	for tick := 0; tick < ticks; tick++ {
		for _, x := range []*Engine{e, twin} {
			if cmds != nil {
				if err := x.Submit("client", cmds(tick)...); err != nil {
					t.Fatal(err)
				}
			}
		}
		twin.occ.exact = false
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Tick(); err != nil {
			t.Fatal(err)
		}
		if !identicalTables(e.env, twin.env) {
			t.Fatalf("tick %d: the world with a carried occupancy table diverged from the refilling one", tick)
		}
		checkCarried(t, e, fmt.Sprintf("after tick %d", tick))
	}
}

// TestCarriedOccupancyMatchesRefill pins the carried occupancy table to
// the row-order refill it replaces. Driven phase by phase, the table
// after every movement and every resurrection must hold what a refill
// holds. Over whole ticks, a world that carries it must stay identical
// to one that refills every tick: a combat-heavy battle (moves, deaths,
// respawns), one under spawn, despawn and position-set commands, one
// whose game moves a unit in ApplyEffects, a world restored from a
// checkpoint with two units on one square (where the refill decides who
// holds it, so the table must stop claiming to be in sync), and a full
// grid a unit keeps respawning into (the fallback that stacks it on the
// origin).
func TestCarriedOccupancyMatchesRefill(t *testing.T) {
	t.Run("phases", func(t *testing.T) {
		e := newEngine(t, battleProg(t), 200, Indexed, 5, func(o *Options) { o.Workers = 1 })
		if err := e.Run(2); err != nil {
			t.Fatal(err)
		}
		st := rng.NewStream(rng.New(9), 0)
		n := e.env.Len()
		for round := 0; round < 40; round++ {
			moves, dead := make([]geom.Vec, n), make([]bool, n)
			for i := range moves {
				if st.Intn(3) == 0 {
					moves[i] = geom.Vec{X: float64(st.Intn(5) - 2), Y: float64(st.Intn(5) - 2)}
				}
				dead[i] = st.Intn(20) == 0
			}
			movementPhase(e, moves, make([]bool, n))
			if !e.occ.exact {
				t.Fatalf("round %d: the table lost sync in a world without shared squares", round)
			}
			checkCarried(t, e, fmt.Sprintf("round %d, after movement", round))
			e.resurrect(dead)
			checkCarried(t, e, fmt.Sprintf("round %d, after resurrection", round))
		}
	})

	t.Run("battle", func(t *testing.T) {
		prog := battleProg(t)
		mk := func() *Engine {
			spec := workload.Spec{Units: 150, Density: 0.05, Seed: 8, Formation: workload.BattleLines}
			e, err := New(prog, game.NewMechanics(), workload.Generate(spec), Options{
				Mode: Indexed, Categoricals: game.Categoricals(), Seed: 8, Side: spec.Side(), MoveSpeed: 1, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := mk()
		runAgainstRefill(t, e, mk(), 80, nil)
		if e.Stats.Deaths == 0 || e.Stats.Moves == 0 {
			t.Fatalf("the battle exercised nothing: %d deaths, %d moves", e.Stats.Deaths, e.Stats.Moves)
		}
	})

	// Spawns, despawns and position sets change the population and move
	// units through the command mirror, which keeps a carried table exact:
	// it must never need a refill.
	t.Run("commands", func(t *testing.T) {
		prog := battleProg(t)
		spec := workload.Spec{Units: 150, Density: 0.05, Seed: 8, Formation: workload.BattleLines}
		side := spec.Side()
		mk := func() *Engine {
			e, err := New(prog, game.NewMechanics(), workload.Generate(spec), Options{
				Mode: Indexed, Categoricals: game.Categoricals(), Seed: 8, Side: side, MoveSpeed: 1, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		cmds := func(tick int) []Command {
			st := rng.NewStream(rng.New(11), int64(tick))
			x, y := float64(st.Intn(int(side))), float64(st.Intn(int(side)))
			return []Command{
				{Op: OpSpawn, Row: game.NewUnit(int64(1000+tick), tick%2, game.Archer, geom.Point{X: x, Y: y})},
				{Op: OpDespawn, Key: int64(tick)},
				{Op: OpSet, Key: int64(100 + tick), Col: "posx", Val: float64(st.Intn(int(side)))},
			}
		}
		e := mk()
		runAgainstRefill(t, e, mk(), 40, cmds)
		if !e.occ.exact || e.Stats.CommandsApplied < 80 {
			t.Fatalf("table exact: %v after %d applied commands — the carried path was not exercised", e.occ.exact, e.Stats.CommandsApplied)
		}
	})

	// A game may move a unit itself, in ApplyEffects: the record must
	// notice and refill, as the twin does.
	t.Run("a game that moves units", func(t *testing.T) {
		prog := battleProg(t)
		spec := workload.Spec{Units: 150, Density: 0.05, Seed: 8, Formation: workload.BattleLines}
		shoves := 0
		mk := func() *Engine {
			g := &shovingGame{Game: game.NewMechanics(), kc: prog.Schema.KeyCol(), px: prog.Schema.MustCol("posx"), side: spec.Side(), shoves: &shoves}
			e, err := New(prog, g, workload.Generate(spec), Options{
				Mode: Indexed, Categoricals: game.Categoricals(), Seed: 8, Side: spec.Side(), MoveSpeed: 1, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		runAgainstRefill(t, mk(), mk(), 40, nil)
		if shoves < 40 {
			t.Fatalf("the game moved a unit %d times", shoves)
		}
	})

	// A checkpoint a client PUTs may hold a world the engine would never
	// produce itself: units 0 and 1 share square (3, 3).
	t.Run("shared square from a checkpoint", func(t *testing.T) {
		prog := battleProg(t)
		env := table.New(prog.Schema, 6)
		for i, p := range []geom.Point{{X: 3, Y: 3}, {X: 3.5, Y: 3.5}, {X: 1, Y: 1}, {X: 6, Y: 6}, {X: 1, Y: 6}, {X: 6, Y: 1}} {
			env.Append(game.NewUnit(int64(i), i%2, game.Archer, p))
		}
		src, err := New(prog, game.NewMechanics(), env, Options{Mode: Indexed, Categoricals: game.Categoricals(), Seed: 4, Side: 8, MoveSpeed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := src.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		open := func() *Engine {
			s, err := Open(bytes.NewReader(buf.Bytes()), game.NewMechanics(), Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return s.Engine()
		}
		probe := open()
		probe.occ.sync()
		if probe.occ.exact {
			t.Fatal("two units share a square and the table claims to be in sync")
		}
		if k, _ := probe.occ.taken.Occupied(3, 3); k != 0 {
			t.Fatalf("square (3, 3) held by row %d; the refill gives it to the earlier row, row 0", k)
		}
		runAgainstRefill(t, open(), open(), 30, nil)
	})

	// Five knights on a 2×2 grid, the last sharing a square and unable to
	// live: it dies every tick and finds no free square to respawn on.
	t.Run("respawn into a full grid", func(t *testing.T) {
		prog := battleProg(t)
		mk := func() *Engine {
			env := table.New(prog.Schema, 5)
			for i, p := range []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: 1, Y: 1}, {X: 1, Y: 1}} {
				env.Append(game.NewUnit(int64(i), 0, game.Knight, p))
			}
			doomed := env.Rows[4]
			doomed[prog.Schema.MustCol("health")], doomed[prog.Schema.MustCol("maxhealth")] = 0, 0
			e, err := New(prog, game.NewMechanics(), env, Options{Mode: Indexed, Categoricals: game.Categoricals(), Seed: 6, Side: 2, MoveSpeed: 1, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := mk()
		runAgainstRefill(t, e, mk(), 10, nil)
		if e.Stats.Deaths < 10 || e.occ.exact {
			t.Fatalf("the doomed knight died %d times; table in sync: %v — the full-grid fallback was not exercised", e.Stats.Deaths, e.occ.exact)
		}
	})
}
