package engine

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/workload"
)

// TestInitialKeysFollowSpawnRule: a world that comes up from rows — New
// over a table, Restore and Open over a checkpoint stream (and so a PUT
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
			_, err = Restore(bytes.NewReader(buf.Bytes()), prog, mech, Options{})
			check(t, "Restore", err, tc.bad, tc.dup)
			_, err = Open(bytes.NewReader(buf.Bytes()), mech, Options{})
			check(t, "Open", err, tc.bad, tc.dup)
		})
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
