package table

import (
	"math"
	"strings"
	"testing"
)

func battleSchema(t testing.TB) *Schema {
	t.Helper()
	// The schema of paper Eq. (1).
	s, err := NewSchema(
		Attr{"key", Const}, Attr{"player", Const},
		Attr{"posx", Const}, Attr{"posy", Const},
		Attr{"health", Const}, Attr{"cooldown", Const},
		Attr{"weaponused", Max},
		Attr{"movevect_x", Sum}, Attr{"movevect_y", Sum},
		Attr{"damage", Sum}, Attr{"inaura", Max},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Const: "const", Sum: "sum", Max: "max", Min: "min", Kind(9): "Kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindIdentityFold(t *testing.T) {
	if Sum.Identity() != 0 {
		t.Error("Sum identity != 0")
	}
	if !math.IsInf(Max.Identity(), -1) || !math.IsInf(Min.Identity(), 1) {
		t.Error("Max/Min identities wrong")
	}
	if Sum.Fold(2, 3) != 5 || Max.Fold(2, 3) != 3 || Min.Fold(2, 3) != 2 {
		t.Error("Fold wrong")
	}
	// Folding with the identity is a no-op.
	for _, k := range []Kind{Sum, Max, Min} {
		if k.Fold(k.Identity(), 7) != 7 {
			t.Errorf("%v: identity not neutral", k)
		}
	}
}

func TestKindConstPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Identity": func() { Const.Identity() },
		"Fold":     func() { Const.Fold(1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on Const did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Attr{"a", Sum}); err == nil {
		t.Error("schema without key should fail")
	}
	if _, err := NewSchema(Attr{"key", Sum}); err == nil {
		t.Error("non-const key should fail")
	}
	if _, err := NewSchema(Attr{"key", Const}, Attr{"key", Sum}); err == nil {
		t.Error("duplicate names should fail")
	}
	if _, err := NewSchema(Attr{"key", Const}, Attr{"", Sum}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := battleSchema(t)
	if s.NumAttrs() != 11 {
		t.Fatalf("NumAttrs = %d", s.NumAttrs())
	}
	if s.KeyCol() != 0 {
		t.Fatalf("KeyCol = %d", s.KeyCol())
	}
	if i, ok := s.Col("damage"); !ok || i != 9 {
		t.Fatalf("Col(damage) = %d,%v", i, ok)
	}
	if _, ok := s.Col("nope"); ok {
		t.Fatal("Col(nope) should not exist")
	}
	if got := len(s.ConstCols()); got != 6 {
		t.Fatalf("ConstCols = %d, want 6", got)
	}
	if got := len(s.EffectCols()); got != 5 {
		t.Fatalf("EffectCols = %d, want 5", got)
	}
	if a := s.Attr(6); a.Name != "weaponused" || a.Kind != Max {
		t.Fatalf("Attr(6) = %v", a)
	}
}

func TestMustColPanics(t *testing.T) {
	s := battleSchema(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustCol on missing attr should panic")
		}
	}()
	s.MustCol("missing")
}

func TestSchemaEqual(t *testing.T) {
	a := battleSchema(t)
	b := battleSchema(t)
	if !a.Equal(b) || !a.Equal(a) {
		t.Fatal("identical schemas should be Equal")
	}
	c := MustSchema(Attr{"key", Const}, Attr{"damage", Sum})
	if a.Equal(c) {
		t.Fatal("different schemas should not be Equal")
	}
	if a.Equal(nil) {
		t.Fatal("Equal(nil) should be false")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchema should panic on invalid schema")
		}
	}()
	MustSchema(Attr{"a", Sum})
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(Attr{"key", Const}, Attr{"damage", Sum})
	got := s.String()
	if !strings.Contains(got, "key:const") || !strings.Contains(got, "damage:sum") {
		t.Fatalf("String = %q", got)
	}
}
