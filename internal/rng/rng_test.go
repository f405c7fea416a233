package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStableWithinTick(t *testing.T) {
	s := New(42)
	tk := s.Tick(7)
	for i := int64(0); i < 100; i++ {
		a := tk.Random(13, i)
		b := tk.Random(13, i)
		if a != b {
			t.Fatalf("Random(%d) not stable within tick: %d vs %d", i, a, b)
		}
	}
}

func TestVariesAcrossTicks(t *testing.T) {
	s := New(42)
	same := 0
	for tick := int64(0); tick < 200; tick++ {
		if s.Tick(tick).Random(13, 1) == s.Tick(tick+1).Random(13, 1) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("values repeated across ticks %d/200 times", same)
	}
}

func TestVariesAcrossUnitsAndSeeds(t *testing.T) {
	s := New(42)
	tk := s.Tick(3)
	seen := map[int64]bool{}
	for key := int64(0); key < 100; key++ {
		seen[tk.Random(key, 1)] = true
	}
	if len(seen) < 98 {
		t.Fatalf("expected ~100 distinct values across units, got %d", len(seen))
	}
	if New(1).Tick(3).Random(5, 1) == New(2).Tick(3).Random(5, 1) {
		t.Fatalf("different run seeds should give different streams")
	}
}

func TestRandomNonNegativeAndBounded(t *testing.T) {
	tk := New(9).Tick(0)
	for i := int64(0); i < 1000; i++ {
		v := tk.Random(i, i)
		if v < 0 || v >= 1<<31 {
			t.Fatalf("Random out of [0, 2^31): %d", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(1)
	counts := make([]int, 6)
	for i := int64(0); i < 6000; i++ {
		v := s.Intn(0, i, 0, 6)
		if v < 0 || v >= 6 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for face, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("face %d count %d outside [800,1200]; not uniform", face, c)
		}
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n=0")
		}
	}()
	New(1).Intn(0, 0, 0, 0)
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	var sum float64
	const n = 10000
	for i := int64(0); i < n; i++ {
		v := s.Float64(1, i, 2)
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ≈0.5", mean)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(New(7), 1)
	b := NewStream(New(7), 1)
	for i := 0; i < 50; i++ {
		if a.Next() != b.Next() {
			t.Fatal("streams with same seed/purpose diverged")
		}
	}
	c := NewStream(New(7), 2)
	if NewStream(New(7), 1).Next() == c.Next() {
		t.Fatal("different purposes should give different streams")
	}
}

func TestStreamPerm(t *testing.T) {
	st := NewStream(New(5), 3)
	p := make([]int, 100)
	st.Perm(p)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
	// A permutation of length 100 should essentially never be identity.
	identity := true
	for i, v := range p {
		if i != v {
			identity = false
			break
		}
	}
	if identity {
		t.Fatal("Perm returned the identity permutation; shuffle broken")
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// Property: mul64 agrees with native 64-bit multiplication on the low word.
func TestMul64LowWordProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mix64 is injective on a sample (no collisions among 1<<15 inputs).
func TestMixNoEasyCollisions(t *testing.T) {
	seen := make(map[uint64]uint64, 1<<15)
	for i := uint64(0); i < 1<<15; i++ {
		h := mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: mix64(%d) == mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func BenchmarkRandom(b *testing.B) {
	tk := New(1).Tick(100)
	for i := 0; i < b.N; i++ {
		_ = tk.Random(int64(i), 1)
	}
}

// Substreams must be (a) reproducible, (b) distinct across purposes and
// indexes, and (c) independent of creation order or count — the property
// the parallel engine relies on for bit-identical results at any worker
// count.
func TestSubstreamDeterminismAndIndependence(t *testing.T) {
	src := New(99)

	a1 := src.Substream(5, 7)
	a2 := src.Substream(5, 7)
	for i := 0; i < 32; i++ {
		if a1.Next() != a2.Next() {
			t.Fatal("same (purpose, index) must reproduce the same stream")
		}
	}

	// Creating unrelated substreams in between must not perturb a stream.
	b1 := src.Substream(5, 8)
	_ = src.Substream(6, 8)
	_ = src.Substream(5, 9)
	b2 := src.Substream(5, 8)
	for i := 0; i < 32; i++ {
		if b1.Next() != b2.Next() {
			t.Fatal("substream depends on creation order")
		}
	}

	// Distinct purposes or indexes give distinct streams.
	c := src.Substream(5, 7)
	d := src.Substream(5, 10)
	e := src.Substream(11, 7)
	same := 0
	for i := 0; i < 64; i++ {
		cv := c.Next()
		if cv == d.Next() {
			same++
		}
		if cv == e.Next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions across distinct substreams", same)
	}
}

// Substream values should look uniform enough for placement draws.
func TestSubstreamRange(t *testing.T) {
	st := New(3).Substream(2, 4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := st.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d of 10 buckets hit in 1000 draws", len(seen))
	}
}
