package segtree

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New(0, Min)
	if v, k := tr.Root(); !math.IsInf(v, 1) || k != NoKey {
		t.Fatalf("empty root = (%v,%d)", v, k)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, Min)
}

func TestIdentity(t *testing.T) {
	if !math.IsInf(Identity(Min), 1) {
		t.Error("Min identity should be +Inf")
	}
	if !math.IsInf(Identity(Max), -1) {
		t.Error("Max identity should be -Inf")
	}
}

// Reset must leave a tree indistinguishable from New at the new size,
// whatever size and contents it had: smaller (stale leaves beyond n must
// not answer), larger (storage grows), and back.
func TestResetRedimensions(t *testing.T) {
	tr := New(8, Min)
	for i := 0; i < 8; i++ {
		tr.Set(i, float64(i-10), int64(i))
	}
	for _, n := range []int{3, 100, 0, 8} {
		tr.Reset(n)
		if tr.Len() != n {
			t.Fatalf("Reset(%d): Len = %d", n, tr.Len())
		}
		if v, k := tr.Query(0, 1000); !math.IsInf(v, 1) || k != NoKey {
			t.Fatalf("Reset(%d): root = (%v,%d), want the identity", n, v, k)
		}
		if n == 0 {
			continue
		}
		tr.Set(n-1, 5, 77)
		if v, k := tr.Root(); v != 5 || k != 77 {
			t.Fatalf("Reset(%d) then Set: root = (%v,%d)", n, v, k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Reset(%d): Set(%d) should be out of range", n, n)
				}
			}()
			tr.Set(n, 1, 1)
		}()
	}
}

// Resize must leave a clean tree — every position that was set cleared —
// indistinguishable from New at the new size, through the same walk of
// sizes.
func TestResizeCleanTree(t *testing.T) {
	tr := New(8, Max)
	for _, n := range []int{3, 100, 0, 8, 2} {
		tr.Resize(n)
		if v, k := tr.Query(0, 1000); !math.IsInf(v, -1) || k != NoKey {
			t.Fatalf("Resize(%d): root = (%v,%d), want the identity", n, v, k)
		}
		for i := 0; i < n; i++ {
			tr.Set(i, float64(i), int64(i))
		}
		if v, k := tr.Root(); n > 0 && (v != float64(n-1) || k != int64(n-1)) {
			t.Fatalf("Resize(%d) then Set: root = (%v,%d)", n, v, k)
		}
		for i := 0; i < n; i++ {
			tr.Clear(i)
		}
	}
}

func TestSetQueryMin(t *testing.T) {
	tr := New(8, Min)
	vals := []float64{5, 3, 8, 1, 9, 2, 7, 4}
	for i, v := range vals {
		tr.Set(i, v, int64(100+i))
	}
	if v, k := tr.Query(0, 8); v != 1 || k != 103 {
		t.Fatalf("full min = (%v,%d), want (1,103)", v, k)
	}
	if v, k := tr.Query(4, 8); v != 2 || k != 105 {
		t.Fatalf("min[4,8) = (%v,%d), want (2,105)", v, k)
	}
	if v, k := tr.Query(2, 3); v != 8 || k != 102 {
		t.Fatalf("min[2,3) = (%v,%d), want (8,102)", v, k)
	}
}

func TestSetQueryMax(t *testing.T) {
	tr := New(5, Max)
	vals := []float64{5, 3, 8, 1, 9}
	for i, v := range vals {
		tr.Set(i, v, int64(i))
	}
	if v, k := tr.Query(0, 5); v != 9 || k != 4 {
		t.Fatalf("full max = (%v,%d)", v, k)
	}
	if v, k := tr.Query(0, 2); v != 5 || k != 0 {
		t.Fatalf("max[0,2) = (%v,%d)", v, k)
	}
}

func TestClear(t *testing.T) {
	tr := New(4, Min)
	tr.Set(0, 5, 10)
	tr.Set(1, 3, 11)
	tr.Clear(1)
	if v, k := tr.Root(); v != 5 || k != 10 {
		t.Fatalf("after Clear root = (%v,%d), want (5,10)", v, k)
	}
	tr.Clear(0)
	if v, k := tr.Root(); !math.IsInf(v, 1) || k != NoKey {
		t.Fatalf("all cleared root = (%v,%d)", v, k)
	}
}

func TestUpdateOverwrites(t *testing.T) {
	tr := New(4, Max)
	tr.Set(2, 10, 1)
	tr.Set(2, 4, 1)
	if v, _ := tr.Root(); v != 4 {
		t.Fatalf("overwrite not reflected: %v", v)
	}
}

func TestTieBreaksTowardSmallerKey(t *testing.T) {
	tr := New(4, Min)
	tr.Set(0, 7, 50)
	tr.Set(1, 7, 20)
	tr.Set(2, 7, 90)
	if _, k := tr.Root(); k != 20 {
		t.Fatalf("tie should pick smallest key, got %d", k)
	}
	trMax := New(4, Max)
	trMax.Set(0, 7, 50)
	trMax.Set(1, 7, 20)
	if _, k := trMax.Root(); k != 20 {
		t.Fatalf("max tie should also pick smallest key, got %d", k)
	}
}

func TestEmptyAndClampedRanges(t *testing.T) {
	tr := New(4, Min)
	tr.Set(0, 1, 1)
	if v, k := tr.Query(2, 2); !math.IsInf(v, 1) || k != NoKey {
		t.Fatalf("empty range = (%v,%d)", v, k)
	}
	if v, k := tr.Query(3, 1); !math.IsInf(v, 1) || k != NoKey {
		t.Fatalf("inverted range = (%v,%d)", v, k)
	}
	if v, _ := tr.Query(-5, 100); v != 1 {
		t.Fatalf("clamped range = %v, want 1", v)
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	tr := New(4, Min)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Set(4, 1, 1)
}

// Property: tree queries agree with brute force under random updates,
// clears, and range queries.
func TestAgainstBruteForce(t *testing.T) {
	type step struct {
		Pos   uint8
		Val   int8
		Clear bool
		QLo   uint8
		QHi   uint8
	}
	for _, op := range []Op{Min, Max} {
		op := op
		f := func(steps []step) bool {
			const n = 23
			tr := New(n, op)
			brute := make([]float64, n)
			keys := make([]int64, n)
			for i := range brute {
				brute[i] = Identity(op)
				keys[i] = NoKey
			}
			for si, s := range steps {
				p := int(s.Pos) % n
				if s.Clear {
					tr.Clear(p)
					brute[p], keys[p] = Identity(op), NoKey
				} else {
					tr.Set(p, float64(s.Val), int64(si))
					brute[p], keys[p] = float64(s.Val), int64(si)
				}
				lo, hi := int(s.QLo)%n, int(s.QHi)%(n+1)
				gv, gk := tr.Query(lo, hi)
				wv, wk := Identity(op), NoKey
				for i := lo; i < hi; i++ {
					if tr.better(brute[i], keys[i], wv, wk) {
						wv, wk = brute[i], keys[i]
					}
				}
				if gv != wv || gk != wk {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
	}
}

func BenchmarkSetQuery(b *testing.B) {
	tr := New(4096, Min)
	for i := 0; i < b.N; i++ {
		p := i % 4096
		tr.Set(p, float64(i%97), int64(i))
		tr.Query(p/2, p/2+512)
	}
}
