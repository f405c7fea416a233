package game

import (
	"testing"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/table"
)

// untouched returns an effect row holding every effect attribute's fold
// identity: what a unit that no action touched this tick carries.
func untouched(t *testing.T) []float64 {
	t.Helper()
	s := Schema()
	eff := make([]float64, s.NumAttrs())
	for i := range eff {
		if k := s.Attr(i).Kind; k != table.Const {
			eff[i] = k.Identity()
		}
	}
	return eff
}

// col returns the battle schema's column of name.
func col(name string) int { return Schema().MustCol(name) }

func TestNewUnitRowMatchesSchema(t *testing.T) {
	s := Schema()
	for ut, st := range roster() {
		row := NewUnit(42, 1, ut, geom.Point{X: 3.5, Y: 7.25})
		if len(row) != s.NumAttrs() {
			t.Fatalf("unit type %d: row width %d, schema has %d attributes", ut, len(row), s.NumAttrs())
		}
		want := map[string]float64{
			"key": 42, "player": 1, "unittype": float64(ut), "posx": 3.5, "posy": 7.25,
			"health": st.MaxHealth, "maxhealth": st.MaxHealth, "ac": st.AC, "dr": st.DR,
			"attack": st.Attack, "dmgsides": st.DmgSides, "dmgbonus": st.DmgBonus,
			"range": st.Range, "sight": st.Sight, "morale": st.Morale,
			"cooldown": 0, "weaponused": 0, "movevect_x": 0, "movevect_y": 0, "damage": 0, "inaura": 0,
		}
		if len(want) != s.NumAttrs() {
			t.Fatalf("test names %d attributes, schema has %d", len(want), s.NumAttrs())
		}
		for name, v := range want {
			if got := row[s.MustCol(name)]; got != v {
				t.Errorf("unit type %d: %s = %v, want %v", ut, name, got, v)
			}
		}
	}
}

func TestCategoricalsAreConstAttributes(t *testing.T) {
	s := Schema()
	for _, name := range Categoricals() {
		i, ok := s.Col(name)
		if !ok {
			t.Fatalf("categorical %q is not in the schema", name)
		}
		if k := s.Attr(i).Kind; k != table.Const {
			t.Errorf("categorical %q has kind %v; a partition attribute must be const", name, k)
		}
	}
}

func TestApplyEffectsUntouchedUnit(t *testing.T) {
	m := NewMechanics()
	row := NewUnit(1, 0, Archer, geom.Point{X: 1, Y: 1})
	row[col("health")] = 10
	row[col("cooldown")] = 3
	mv, alive := m.ApplyEffects(row, untouched(t))
	if !alive {
		t.Fatal("a unit no action touched died")
	}
	if mv != (geom.Vec{}) {
		t.Errorf("movement = %v, want zero", mv)
	}
	if h := row[col("health")]; h != 10 {
		t.Errorf("health = %v, want 10 (no damage, no aura)", h)
	}
	if cd := row[col("cooldown")]; cd != 2 {
		t.Errorf("cooldown = %v, want 2 (one tick of decay)", cd)
	}
}

func TestApplyEffectsDamageAndDeath(t *testing.T) {
	m := NewMechanics()
	for _, c := range []struct {
		damage float64
		health float64
		alive  bool
	}{
		{damage: 5, health: 13, alive: true},
		{damage: 18, health: 0, alive: false}, // reduced to exactly 0: dead
		{damage: 25, health: -7, alive: false},
	} {
		row := NewUnit(1, 0, Archer, geom.Point{}) // 18 hit points
		eff := untouched(t)
		eff[col("damage")] = c.damage
		_, alive := m.ApplyEffects(row, eff)
		if h := row[col("health")]; h != c.health || alive != c.alive {
			t.Errorf("damage %v: health %v alive %v, want %v %v", c.damage, h, alive, c.health, c.alive)
		}
	}
}

func TestApplyEffectsHealCappedAtMaxHealth(t *testing.T) {
	m := NewMechanics()
	row := NewUnit(1, 0, Knight, geom.Point{}) // 30 hit points
	row[col("health")] = 28
	eff := untouched(t)
	eff[col("inaura")] = Consts()["_HEAL_AURA"]
	m.ApplyEffects(row, eff)
	if h := row[col("health")]; h != 30 {
		t.Errorf("healed health = %v, want 30, the maxhealth", h)
	}
	row[col("health")] = 20
	eff[col("damage")] = 4
	m.ApplyEffects(row, eff)
	if h := row[col("health")]; h != 19 {
		t.Errorf("health after damage 4 and aura 3 = %v, want 19", h)
	}
}

func TestApplyEffectsNegativeAuraIgnored(t *testing.T) {
	m := NewMechanics()
	row := NewUnit(1, 0, Knight, geom.Point{})
	row[col("health")] = 20
	eff := untouched(t)
	eff[col("inaura")] = -5
	if _, alive := m.ApplyEffects(row, eff); !alive {
		t.Fatal("a negative aura killed the unit")
	}
	if h := row[col("health")]; h != 20 {
		t.Errorf("health = %v, want 20: an aura never harms", h)
	}
}

func TestApplyEffectsCooldownAndReload(t *testing.T) {
	m := NewMechanics()
	reload := Consts()["_TIME_RELOAD"]
	for _, c := range []struct {
		cooldown, used, want float64
	}{
		{cooldown: 0, used: 0, want: 0}, // decay stops at 0
		{cooldown: 0, used: 1, want: reload},
		{cooldown: 4, used: 0, want: 3},
		{cooldown: 4, used: 1, want: 3 + reload},
	} {
		row := NewUnit(1, 0, Archer, geom.Point{})
		row[col("cooldown")] = c.cooldown
		eff := untouched(t)
		if c.used != 0 {
			eff[col("weaponused")] = c.used
		}
		m.ApplyEffects(row, eff)
		if cd := row[col("cooldown")]; cd != c.want {
			t.Errorf("cooldown %v, weaponused %v: cooldown = %v, want %v", c.cooldown, c.used, cd, c.want)
		}
	}
}

func TestApplyEffectsReturnsMovement(t *testing.T) {
	m := NewMechanics()
	row := NewUnit(1, 0, Knight, geom.Point{X: 5, Y: 5})
	eff := untouched(t)
	eff[col("movevect_x")] = 1.5
	eff[col("movevect_y")] = -2
	mv, _ := m.ApplyEffects(row, eff)
	if mv != (geom.Vec{X: 1.5, Y: -2}) {
		t.Errorf("movement = %v, want {1.5 -2}", mv)
	}
	if row[col("posx")] != 5 || row[col("posy")] != 5 {
		t.Errorf("ApplyEffects moved the unit to (%v, %v); the movement phase does that", row[col("posx")], row[col("posy")])
	}
}

func TestRespawnRestoresHealthAndCooldown(t *testing.T) {
	m := NewMechanics()
	row := NewUnit(1, 0, Healer, geom.Point{X: 4, Y: 9})
	row[col("health")] = -3
	row[col("cooldown")] = 2
	m.Respawn(row, nil)
	if h, full := row[col("health")], row[col("maxhealth")]; h != full {
		t.Errorf("respawned health = %v, want maxhealth %v", h, full)
	}
	if cd := row[col("cooldown")]; cd != 0 {
		t.Errorf("respawned cooldown = %v, want 0", cd)
	}
	if row[col("posx")] != 4 || row[col("posy")] != 9 {
		t.Errorf("Respawn moved the unit to (%v, %v); the engine places it", row[col("posx")], row[col("posy")])
	}
}
