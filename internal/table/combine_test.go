package table

import (
	"math"
	"testing"
	"testing/quick"
)

// effectSchema is a compact schema for combine tests:
// key:const, player:const, dmg:sum, aura:max, freeze:min.
func effectSchema(t testing.TB) *Schema {
	t.Helper()
	return MustSchema(
		Attr{"key", Const}, Attr{"player", Const},
		Attr{"dmg", Sum}, Attr{"aura", Max}, Attr{"freeze", Min},
	)
}

func TestAppendWidthPanics(t *testing.T) {
	tb := New(effectSchema(t), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Append with wrong width should panic")
		}
	}()
	tb.Append([]float64{1, 2})
}

func TestUnionSchemaMismatchPanics(t *testing.T) {
	a := New(effectSchema(t), 0)
	b := New(MustSchema(Attr{"key", Const}), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Union with mismatched schema should panic")
		}
	}()
	a.Union(b)
}

func TestCombineFoldsByKind(t *testing.T) {
	tb := New(effectSchema(t), 0)
	// Two damage effects (stackable: sum), two auras (nonstackable: max),
	// two freeze priorities (min) on the same unit.
	tb.Append([]float64{1, 0, 5, 10, 3})
	tb.Append([]float64{1, 0, 7, 20, 2})
	got := tb.Combine()
	if got.Len() != 1 {
		t.Fatalf("Combine rows = %d, want 1", got.Len())
	}
	r := got.Rows[0]
	if r[2] != 12 {
		t.Errorf("sum(dmg) = %v, want 12", r[2])
	}
	if r[3] != 20 {
		t.Errorf("max(aura) = %v, want 20", r[3])
	}
	if r[4] != 2 {
		t.Errorf("min(freeze) = %v, want 2", r[4])
	}
}

func TestCombineGroupsByAllConstAttrs(t *testing.T) {
	tb := New(effectSchema(t), 0)
	// Same key but different player: two distinct const tuples, so Combine
	// must not merge them (⊕ groups by K *and* the const attributes).
	tb.Append([]float64{1, 0, 5, 0, 0})
	tb.Append([]float64{1, 1, 7, 0, 0})
	if got := tb.Combine(); got.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (distinct const tuples)", got.Len())
	}
}

func TestCombinePreservesDistinctKeys(t *testing.T) {
	tb := New(effectSchema(t), 0)
	tb.Append([]float64{1, 0, 5, 1, 0})
	tb.Append([]float64{2, 0, 7, 2, 0})
	tb.Append([]float64{1, 0, 3, 9, 0})
	got := tb.Combine()
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2", got.Len())
	}
	got.SortByKey()
	if got.Rows[0][2] != 8 || got.Rows[0][3] != 9 {
		t.Errorf("key 1 folded wrong: %v", got.Rows[0])
	}
	if got.Rows[1][2] != 7 || got.Rows[1][3] != 2 {
		t.Errorf("key 2 folded wrong: %v", got.Rows[1])
	}
}

func TestCombineEmptyTable(t *testing.T) {
	tb := New(effectSchema(t), 0)
	if got := tb.Combine(); got.Len() != 0 {
		t.Fatalf("Combine of empty = %d rows", got.Len())
	}
}

// randomTable builds a pseudo-random effect table with small keys so that
// groups actually collide.
func randomTable(t testing.TB, seed int64, n int) *Table {
	tb := New(effectSchema(t), n)
	s := seed
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64((s>>33)%17) - 8
	}
	for i := 0; i < n; i++ {
		key := math.Abs(next())
		player := math.Mod(math.Abs(next()), 2)
		tb.Append([]float64{key, player, next(), next(), next()})
	}
	return tb
}

// Property (paper Eq. 3): ⊕(E1 ⊎ E2) = ⊕(⊕(E1) ⊎ E2).
func TestCombineAbsorption(t *testing.T) {
	f := func(seed1, seed2 int64, n1, n2 uint8) bool {
		e1 := randomTable(t, seed1, int(n1%40))
		e2 := randomTable(t, seed2, int(n2%40))
		lhs := e1.Union(e2).Combine()
		rhs := e1.Combine().Union(e2).Combine()
		return lhs.EqualContents(rhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: idempotence ⊕(⊕(E)) = ⊕(E).
func TestCombineIdempotent(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := randomTable(t, seed, int(n%60))
		once := e.Combine()
		return once.Combine().EqualContents(once)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: commutativity ⊕(E1 ⊎ E2) = ⊕(E2 ⊎ E1).
func TestCombineCommutative(t *testing.T) {
	f := func(seed1, seed2 int64, n1, n2 uint8) bool {
		e1 := randomTable(t, seed1, int(n1%40))
		e2 := randomTable(t, seed2, int(n2%40))
		return e1.Union(e2).Combine().EqualContents(e2.Union(e1).Combine())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: associativity (E1 ⊕ E2) ⊕ E3 = E1 ⊕ (E2 ⊕ E3).
func TestCombineAssociative(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		e1 := randomTable(t, s1, 20)
		e2 := randomTable(t, s2, 20)
		e3 := randomTable(t, s3, 20)
		lhs := e1.Union(e2).Combine().Union(e3).Combine()
		rhs := e1.Union(e2.Union(e3).Combine()).Combine()
		return lhs.EqualContents(rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a keyed table is a fixpoint of Combine (R^⊕ = ⊕R).
func TestCombineKeyedFixpoint(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		e := randomTable(t, seed, int(n%60)).Combine()
		seen := map[float64]bool{}
		for _, r := range e.Rows {
			if seen[r[0]] {
				// Same key may appear under two players; keyed is about
				// the key alone, so skip those instances.
				return true
			}
			seen[r[0]] = true
		}
		return e.Combine().EqualContents(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := New(effectSchema(t), 0)
	tb.Append([]float64{1, 0, 5, 0, 0})
	c := tb.Clone()
	c.Rows[0][2] = 99
	if tb.Rows[0][2] != 5 {
		t.Fatal("Clone shares row storage")
	}
}

// Clone's rows share one backing array: the copy costs a fixed number of
// allocations whatever the row count, and a row is capped at its own end
// so growing it cannot write into the next one.
func TestCloneIsFlat(t *testing.T) {
	tb := New(effectSchema(t), 0)
	for k := 0; k < 500; k++ {
		tb.Append([]float64{float64(k), 0, 1, 2, 3})
	}
	var c *Table
	if allocs := testing.AllocsPerRun(10, func() { c = tb.Clone() }); allocs > 3 {
		t.Fatalf("Clone of 500 rows made %v allocations, want a constant (<= 3)", allocs)
	}
	if len(c.Rows) != 500 || c.Rows[499][0] != 499 || c.Rows[7][4] != 3 {
		t.Fatal("Clone lost rows")
	}
	_ = append(c.Rows[0], 42)
	if c.Rows[1][0] != 1 {
		t.Fatal("appending to a cloned row overwrote its neighbour")
	}
}

func TestEqualContents(t *testing.T) {
	a := New(effectSchema(t), 0)
	a.Append([]float64{1, 0, 5, 0, 0})
	a.Append([]float64{2, 0, 6, 0, 0})
	b := New(effectSchema(t), 0)
	b.Append([]float64{2, 0, 6, 0, 0})
	b.Append([]float64{1, 0, 5, 0, 0})
	if !a.EqualContents(b) {
		t.Fatal("order must not matter")
	}
	b.Rows[0][2] = 7
	if a.EqualContents(b) {
		t.Fatal("value change must be detected")
	}
}

func TestEqualContentsNaN(t *testing.T) {
	s := effectSchema(t)
	a := New(s, 0)
	a.Append([]float64{1, 0, math.NaN(), 0, 0})
	b := New(s, 0)
	b.Append([]float64{1, 0, math.NaN(), 0, 0})
	if !a.EqualContents(b) {
		t.Fatal("NaN should compare equal to NaN in EqualContents")
	}
}

func TestAlmostEqualContents(t *testing.T) {
	a := New(effectSchema(t), 0)
	a.Append([]float64{1, 0, 5, 2, 0})
	b := New(effectSchema(t), 0)
	b.Append([]float64{1, 0, 5 + 1e-12, 2, 0})
	if !a.AlmostEqualContents(b, 1e-9) {
		t.Fatal("tiny float drift should pass AlmostEqualContents")
	}
	if a.AlmostEqualContents(b, 1e-15) {
		t.Fatal("drift above eps should fail")
	}
	c := New(effectSchema(t), 0)
	c.Append([]float64{1, 0, 5, math.Inf(-1), 0})
	d := New(effectSchema(t), 0)
	d.Append([]float64{1, 0, 5, math.Inf(-1), 0})
	if !c.AlmostEqualContents(d, 1e-9) {
		t.Fatal("matching infinities should pass")
	}
	d.Rows[0][3] = math.Inf(1)
	if c.AlmostEqualContents(d, 1e-9) {
		t.Fatal("opposite infinities should fail")
	}
}

func TestSortByKeyStable(t *testing.T) {
	tb := New(effectSchema(t), 0)
	tb.Append([]float64{2, 0, 1, 0, 0})
	tb.Append([]float64{1, 0, 2, 0, 0})
	tb.Append([]float64{1, 1, 3, 0, 0})
	tb.SortByKey()
	if tb.Rows[0][0] != 1 || tb.Rows[1][0] != 1 || tb.Rows[2][0] != 2 {
		t.Fatalf("not sorted: %v", tb.Rows)
	}
	if tb.Rows[0][2] != 2 || tb.Rows[1][2] != 3 {
		t.Fatalf("not stable: %v", tb.Rows)
	}
}

func BenchmarkCombine(b *testing.B) {
	tb := randomTable(b, 42, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Combine()
	}
}
