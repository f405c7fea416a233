package engine

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/ordmap"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/workload"
)

// TestInitialKeysFollowSpawnRule: a world that comes up from rows — New
// over a table, Open over a checkpoint stream (and so a PUT
// checkpoint or a replica bootstrap) — holds every key to the rule a
// spawn command's key obeys (finite, integral, non-negative, at most
// 2^53) and requires the keys unique as the int64 unit identities every
// index keys on, rejecting the world with a *KeyError naming the row.
// Before the rule, keys 1 and 1.5 (or two NaNs) were distinct floats and
// passed, then collapsed into one unit under int64.
func TestInitialKeysFollowSpawnRule(t *testing.T) {
	prog := battleProg(t)
	mech := game.NewMechanics()
	kc := prog.Schema.KeyCol()
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		k0, k1 float64 // the keys given rows 0 and 1; rows 2… keep keys 2…
		bad    int     // the row the KeyError names, -1 for a valid world
		dup    int     // the earlier row holding its key, -1 when none
	}{
		{"valid", 0, 1, -1, -1},
		{"largest-key", 0, 1 << 53, -1, -1},
		{"fraction-collides-under-int64", 1, 1.5, 1, -1},
		{"two-nans", nan, nan, 0, -1},
		{"negative", -1, 1, 0, -1},
		{"beyond-2^53", 1<<53 + 2, 1, 0, -1},
		{"infinite", inf, 1, 0, -1},
		{"duplicate", 7, 7, 1, 0},
		{"signed-zero", 0, math.Copysign(0, -1), 1, 0},
	}
	check := func(t *testing.T, how string, err error, bad, dup int) {
		t.Helper()
		var ke *KeyError
		switch {
		case bad < 0 && err != nil:
			t.Fatalf("%s: valid keys rejected: %v", how, err)
		case bad < 0:
		case !errors.As(err, &ke):
			t.Fatalf("%s: err = %v, want a *KeyError", how, err)
		case ke.Row != bad || ke.Dup != dup:
			t.Fatalf("%s: %v names row %d (dup %d), want row %d (dup %d)", how, err, ke.Row, ke.Dup, bad, dup)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := workload.Spec{Units: 24, Density: 0.01, Seed: 3, Formation: workload.BattleLines}
			env := workload.Generate(spec)
			env.Rows[0][kc], env.Rows[1][kc] = tc.k0, tc.k1
			_, err := New(prog, mech, env, Options{Mode: Indexed, Seed: 3, Side: spec.Side(), MoveSpeed: 1})
			check(t, "New", err, tc.bad, tc.dup)

			// A checksum-honest stream carrying the same keys (engine
			// surgery, then Checkpoint).
			e := newEngine(t, prog, 24, Indexed, 3, nil)
			e.env.Rows[0][kc], e.env.Rows[1][kc] = tc.k0, tc.k1
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			_, err = Open(bytes.NewReader(buf.Bytes()), mech, Options{})
			check(t, "Open", err, tc.bad, tc.dup)
		})
	}
}

// TestCommandKeysAreExact: a despawn or set command's key obeys the key
// rule at admission, and applying a command finds its unit by the exact
// int64 key, through the key table as it stands and as rebuilt. Key
// 2^53+1 is no float64: admitted and compared as one, it named unit
// 2^53, so the batch [spawn 999, despawn 2^53+1] removed unit 2^53 and
// counted both commands as applied.
func TestCommandKeysAreExact(t *testing.T) {
	prog := battleProg(t)
	kc := prog.Schema.KeyCol()
	e := newEngine(t, prog, 24, Indexed, 3, nil)
	e.env.Rows[0][kc] = 1 << 53
	for _, c := range []Command{
		{Op: OpDespawn, Key: 1<<53 + 1},
		{Op: OpSet, Key: 1<<53 + 1, Col: "health", Val: 1},
	} {
		if err := e.Submit("client", c); err == nil {
			t.Errorf("op %d of key 2^53+1 admitted", c.Op)
		}
	}
	for _, idx := range []*ordmap.Map{buildKeyIndex(e.env), nil} {
		e.keys = idx
		if i := e.rowIndexByKey(1<<53 + 1); i >= 0 {
			t.Errorf("key 2^53+1 resolved to row %d, keyed %v (key index built: %v)", i, e.env.Rows[i][kc], idx != nil)
		}
		if i := e.rowIndexByKey(1 << 53); i != 0 {
			t.Errorf("key 2^53 resolved to row %d, want 0 (key index built: %v)", i, idx != nil)
		}
	}
}

// TestInitialPositionsFollowSpawnRule: a world that comes up from rows —
// New over a table, Open over a checkpoint stream (and so a PUT
// checkpoint or a replica bootstrap) — holds every position to the rule a
// spawn command's position obeys (finite, inside [0, Side)), rejecting
// the world with a *PositionError naming the row. Before the rule, a
// checksummed stream with posx NaN or 1e12 opened, and its occupancy
// squares came from a float-to-int32 conversion the platform defines.
func TestInitialPositionsFollowSpawnRule(t *testing.T) {
	prog := battleProg(t)
	mech := game.NewMechanics()
	px := prog.Schema.MustCol("posx")
	spec := workload.Spec{Units: 24, Density: 0.01, Seed: 3, Formation: workload.BattleLines}
	side := spec.Side()
	for _, x := range []float64{math.NaN(), 1e12, -1, side, math.Inf(1), math.Inf(-1)} {
		env := workload.Generate(spec)
		env.Rows[2][px] = x
		_, err := New(prog, mech, env, Options{Mode: Indexed, Seed: 3, Side: side, MoveSpeed: 1})
		var pe *PositionError
		if !errors.As(err, &pe) || pe.Row != 2 {
			t.Errorf("New with posx %v: err = %v, want a *PositionError naming row 2", x, err)
		}

		e := newEngine(t, prog, 24, Indexed, 3, nil)
		e.env.Rows[2][px] = x
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(bytes.NewReader(buf.Bytes()), mech, Options{}); !errors.As(err, &pe) || pe.Row != 2 {
			t.Errorf("Open with posx %v: err = %v, want a *PositionError naming row 2", x, err)
		}
	}
}

// A world side past 2^31 is refused at both ingresses: some in-world
// squares would not fit the occupancy table's int32 coordinates.
func TestWorldSideBounded(t *testing.T) {
	prog := battleProg(t)
	spec := workload.Spec{Units: 24, Density: 0.01, Seed: 3, Formation: workload.BattleLines}
	if _, err := New(prog, game.NewMechanics(), workload.Generate(spec), Options{Mode: Indexed, Side: 1 << 40, MoveSpeed: 1}); err == nil {
		t.Error("New accepted a world of side 2^40")
	}
	e := newEngine(t, prog, 24, Indexed, 3, nil)
	e.opts.Side = 1 << 40
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bytes.NewReader(buf.Bytes()), game.NewMechanics(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "geometry") {
		t.Errorf("Open of a stream with side 2^40: err = %v, want a geometry error", err)
	}
}

// Movement obeys the position rule Open checks at every allowed side, so
// the world it leaves reopens. From side 2^24 up, Side-1e-9 rounds back to
// Side: a unit pushed past the edge of such a world landed on x == Side,
// which Open then refused (and at 2^31 its square overflowed int32).
func TestMovementStaysInsideLargeWorlds(t *testing.T) {
	prog := battleProg(t)
	px := prog.Schema.MustCol("posx")
	for _, side := range []float64{1 << 25, maxSide} {
		spec := workload.Spec{Units: 24, Density: 0.01, Seed: 3, Formation: workload.BattleLines}
		env := workload.Generate(spec)
		env.Rows[0][px] = side - 0.5
		e, err := New(prog, game.NewMechanics(), env, Options{
			Mode: Indexed, Categoricals: game.Categoricals(), Seed: 3, Side: side, MoveSpeed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		moves := make([]geom.Vec, e.env.Len())
		edge := -1
		for i, row := range e.env.Rows {
			if row[px] == side-0.5 {
				edge = i
			}
		}
		moves[edge] = geom.Vec{X: 1}
		movementPhase(e, moves, make([]bool, e.env.Len()))
		if x := e.env.Rows[edge][px]; !inWorld(x, side) {
			t.Fatalf("side %v: the unit pushed past the edge stands at x = %v", side, x)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(bytes.NewReader(buf.Bytes()), game.NewMechanics(), Options{}); err != nil {
			t.Fatalf("side %v: the world movement left does not reopen: %v", side, err)
		}
	}
}

// A unit respawning into a world of side 2^30 whose first pick is taken
// takes its next pick. The retry bound, 10·Side² squares, used to be an
// int product that overflows there: negative, it ended the search at the
// first occupied pick and put the unit on the origin.
func TestRespawnRetriesInLargeWorlds(t *testing.T) {
	prog := battleProg(t)
	const side, seed = 1 << 30, 3
	kc, px, py := prog.Schema.KeyCol(), prog.Schema.MustCol("posx"), prog.Schema.MustCol("posy")
	spec := workload.Spec{Units: 24, Density: 0.01, Seed: seed, Formation: workload.BattleLines}
	e, err := New(prog, game.NewMechanics(), workload.Generate(spec), Options{
		Mode: Indexed, Categoricals: game.Categoricals(), Seed: seed, Side: side, MoveSpeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const dying, blocker = 0, 1
	// The dying unit's draws: Respawn's, then one (x, y) per pick.
	st := rng.New(seed).Substream(2_000_000+e.tick, int64(e.env.Rows[dying][kc]))
	game.NewMechanics().Respawn(slices.Clone(e.env.Rows[dying]), st)
	firstX, firstY := float64(st.Intn(side)), float64(st.Intn(side))
	nextX, nextY := float64(st.Intn(side)), float64(st.Intn(side))
	e.env.Rows[blocker][px], e.env.Rows[blocker][py] = firstX, firstY

	dead := make([]bool, e.env.Len())
	dead[dying] = true
	e.resurrect(dead)
	if x, y := e.env.Rows[dying][px], e.env.Rows[dying][py]; x != nextX || y != nextY {
		t.Fatalf("respawned onto (%v, %v) past the taken (%v, %v), want its next pick (%v, %v)", x, y, firstX, firstY, nextX, nextY)
	}
}

// nanMoveScript asks every unit for a NaN move, every tick.
const nanMoveScript = `
action Drift(u) := on e where e.key = u.key set movevect_x = 0 / (u.posx - u.posx);
function main(u) { perform Drift(u) }`

// A script can ask for a NaN move: 0/0 in a move vector. The clamps pass
// NaN through (every comparison with it is false), so such a move used to
// land units on NaN positions, in squares the platform's float-to-int32
// conversion picked, and the world's own checkpoint then failed Open with
// a *PositionError. A candidate square outside the world is blocked:
// every position stays inside [0, Side), the checkpoint reopens, and its
// bytes agree across Workers {1, 4}.
func TestNaNMoveBlocked(t *testing.T) {
	prog := compileZoo(t, nanMoveScript)
	var first []byte
	for _, w := range restoreWorkers {
		e := newEngine(t, prog, 50, Indexed, 3, func(o *Options) { o.Workers = w })
		if err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		for i, row := range e.env.Rows {
			if !inWorld(row[e.posX], e.opts.Side) || !inWorld(row[e.posY], e.opts.Side) {
				t.Fatalf("w=%d: row %d stands at (%v, %v)", w, i, row[e.posX], row[e.posY])
			}
		}
		if e.Stats.Moves != 0 || e.Stats.MovesBlocked != 4*e.env.Len() {
			t.Fatalf("w=%d: %d moves, %d blocked; every NaN move must block", w, e.Stats.Moves, e.Stats.MovesBlocked)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(bytes.NewReader(buf.Bytes()), game.NewMechanics(), Options{}); err != nil {
			t.Fatalf("w=%d: the world's own checkpoint does not reopen: %v", w, err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("w=%d: checkpoint differs from the w=1 serial run's", w)
		}
	}
}

// A spawn key obeys the same rule: past 2^53 it is refused at admission.
func TestSpawnKeyBeyond2To53Rejected(t *testing.T) {
	e := newEngine(t, battleProg(t), 16, Indexed, 5, nil)
	row := append([]float64(nil), e.env.Rows[0]...)
	row[e.prog.Schema.KeyCol()] = 1<<53 + 2
	if err := e.Submit("t", Command{Op: OpSpawn, Row: row}); err == nil {
		t.Fatal("spawn with a key beyond 2^53 admitted")
	}
}

// TestPublishedKeyTableNeverWritten: a read view resolves Unit probes
// through the key table the engine held when it published, and no spawn
// or despawn afterwards writes that table — the engine edits a copy — so
// the view keeps naming its own rows. The engine's table follows the
// population: every key at its row, the despawned key gone.
func TestPublishedKeyTableNeverWritten(t *testing.T) {
	prog := battleProg(t)
	kc := prog.Schema.KeyCol()
	e := newEngine(t, prog, 40, Indexed, 9, nil)
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	v := e.ReadView()
	want := make(map[int64]int32, v.env.Len())
	for i, row := range v.env.Rows {
		want[int64(row[kc])] = int32(i)
	}
	gone := int64(v.env.Rows[3][kc])
	const spawned = 7777
	if err := e.Submit("test",
		Command{Op: OpDespawn, Key: gone},
		Command{Op: OpSpawn, Row: game.NewUnit(spawned, 0, game.Knight, freeSquare(t, e))},
	); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		if err := e.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if e.Stats.CommandsApplied != 2 {
		t.Fatalf("%d of 2 commands applied", e.Stats.CommandsApplied)
	}
	if v.keys == e.keyIndex() {
		t.Fatal("the engine edits the table its published view holds")
	}
	if got := v.keys.Len(); got != len(want) {
		t.Fatalf("the view's key table holds %d keys, %d when published", got, len(want))
	}
	//sgl:unordered each key is checked on its own
	for k, i := range want {
		if got, ok := v.keys.Get(k); !ok || got != i {
			t.Fatalf("the view's table maps key %d to %d (%v), %d when published", k, got, ok, i)
		}
	}
	if _, ok := v.keys.Get(spawned); ok {
		t.Fatal("a later spawn reached the view's key table")
	}
	for i, row := range e.env.Rows {
		if got, ok := e.keyIndex().Get(int64(row[kc])); !ok || int(got) != i {
			t.Fatalf("the engine's table maps row %d's key to %d (%v)", i, got, ok)
		}
	}
	if _, ok := e.keyIndex().Get(gone); ok || e.keyIndex().Len() != e.env.Len() {
		t.Fatalf("the engine's table holds %d keys for %d rows (despawned key present: %v)", e.keyIndex().Len(), e.env.Len(), ok)
	}
}
