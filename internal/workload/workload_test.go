package workload

import (
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/game"
)

func TestSideFromDensity(t *testing.T) {
	s := Spec{Units: 100, Density: 0.01}
	if got := s.Side(); got != 100 {
		t.Fatalf("Side = %v, want 100 (100 units at 1%%)", got)
	}
	s = Spec{Units: 400, Density: 0.04}
	if got := s.Side(); got != 100 {
		t.Fatalf("Side = %v, want 100", got)
	}
	if got := (Spec{Units: 100}).Side(); got != 100 {
		t.Fatalf("default density should be 1%%: side = %v", got)
	}
}

func TestGenerateBasics(t *testing.T) {
	env := Generate(Spec{Units: 120, Density: 0.01, Seed: 1})
	if env.Len() != 120 {
		t.Fatalf("units = %d", env.Len())
	}
	s := env.Schema
	keys := map[float64]bool{}
	for _, r := range env.Rows {
		if keys[r[s.KeyCol()]] {
			t.Fatal("generated army must be keyed")
		}
		keys[r[s.KeyCol()]] = true
	}
	players := map[float64]int{}
	types := map[float64]int{}
	positions := map[[2]float64]bool{}
	side := (Spec{Units: 120, Density: 0.01}).Side()
	for _, row := range env.Rows {
		players[row[s.MustCol("player")]]++
		types[row[s.MustCol("unittype")]]++
		x, y := row[s.MustCol("posx")], row[s.MustCol("posy")]
		if x < 0 || x >= side || y < 0 || y >= side {
			t.Fatalf("position out of bounds: %v,%v", x, y)
		}
		if x != math.Floor(x) || y != math.Floor(y) {
			t.Fatalf("positions must sit on grid squares: %v,%v", x, y)
		}
		key := [2]float64{x, y}
		if positions[key] {
			t.Fatalf("two units share square %v", key)
		}
		positions[key] = true
		if row[s.MustCol("health")] != row[s.MustCol("maxhealth")] {
			t.Fatal("units should start at full health")
		}
	}
	if players[0] != 60 || players[1] != 60 {
		t.Fatalf("player split = %v", players)
	}
	// Default mix 3:2:1 over 6 → half knights, third archers, sixth healers.
	if types[game.Knight] < types[game.Archer] || types[game.Archer] < types[game.Healer] {
		t.Fatalf("type mix = %v", types)
	}
	if types[game.Healer] == 0 {
		t.Fatal("no healers generated")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Spec{Units: 50, Density: 0.02, Seed: 7})
	b := Generate(Spec{Units: 50, Density: 0.02, Seed: 7})
	if !a.EqualContents(b) {
		t.Fatal("same seed should generate the same army")
	}
	c := Generate(Spec{Units: 50, Density: 0.02, Seed: 8})
	if a.EqualContents(c) {
		t.Fatal("different seeds should generate different armies")
	}
}

func TestBattleLinesSeparatesArmies(t *testing.T) {
	env := Generate(Spec{Units: 200, Density: 0.02, Formation: BattleLines, Seed: 3})
	s := env.Schema
	side := (Spec{Units: 200, Density: 0.02}).Side()
	for _, row := range env.Rows {
		x := row[s.MustCol("posx")]
		if row[s.MustCol("player")] == 0 && x > side/3 {
			t.Fatalf("player 0 unit at x=%v beyond left band", x)
		}
		if row[s.MustCol("player")] == 1 && x < side-2-side/3 {
			t.Fatalf("player 1 unit at x=%v before right band", x)
		}
	}
}

func TestCustomMix(t *testing.T) {
	env := Generate(Spec{Units: 60, Density: 0.01, Seed: 2, Mix: [3]int{0, 1, 0}})
	s := env.Schema
	for _, row := range env.Rows {
		if row[s.MustCol("unittype")] != game.Archer {
			t.Fatal("mix {0,1,0} should generate only archers")
		}
	}
}
