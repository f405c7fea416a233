package geom

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	if got := (Vec{3, 4}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
}

func TestVecClamp(t *testing.T) {
	v := Vec{30, 40}
	c := v.Clamp(5)
	if math.Abs(c.Len()-5) > 1e-12 {
		t.Errorf("Clamp length = %v, want 5", c.Len())
	}
	short := Vec{1, 0}
	if got := short.Clamp(5); got != short {
		t.Errorf("Clamp should not grow short vectors: %v", got)
	}
	if got := v.Clamp(0); got != (Vec{}) {
		t.Errorf("Clamp(0) = %v, want zero", got)
	}
	if got := v.Clamp(-1); got != (Vec{}) {
		t.Errorf("Clamp(-1) = %v, want zero", got)
	}
	// Property: clamping never exceeds the bound.
	f := func(x, y, m float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(m) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		v := Vec{math.Mod(x, 1e6), math.Mod(y, 1e6)}
		m = math.Abs(math.Mod(m, 1e4))
		return v.Clamp(m).Len() <= m*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClampPoint(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct{ in, want Point }{
		{Point{5, 5}, Point{5, 5}},
		{Point{-3, 5}, Point{0, 5}},
		{Point{12, 15}, Point{10, 10}},
	}
	for _, c := range cases {
		if got := r.ClampPoint(c.in); got != c.want {
			t.Errorf("ClampPoint(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// hypotCases are the lengths TestHypotMatchesMathHypot and
// TestHypotFusedTwinDiffers compare: the special values — zeros of both
// signs, subnormals, the largest finite, ±Inf and NaN — against each
// other, then 10⁶ seeded vectors whose sides span 2⁻⁴⁰ to 2⁴⁰.
func hypotCases(yield func(x, y float64) bool) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 0x1p-1030, math.SmallestNonzeroFloat64 * 3,
		1, -3, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, x := range special {
		for _, y := range special {
			if !yield(x, y) {
				return
			}
		}
	}
	r := rand.New(rand.NewPCG(20, 13))
	side := func() float64 { return math.Ldexp(2*r.Float64()-1, r.IntN(81)-40) }
	for i := 0; i < 1_000_000; i++ {
		if !yield(side(), side()) {
			return
		}
	}
}

// TestHypotMatchesMathHypot: Vec.Len is math.Hypot bit for bit on amd64,
// where math.Hypot is an assembly routine with no fused step, so
// replacing it moved no length (and no checkpoint pin).
func TestHypotMatchesMathHypot(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Hypot is unfused assembly only on amd64")
	}
	n := 0
	for x, y := range hypotCases {
		got, want := Vec{x, y}.Len(), math.Hypot(x, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Vec{%v, %v}.Len() = %v (%#x), math.Hypot = %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		n++
	}
	t.Logf("%d lengths bit-identical", n)
}

// TestHypotFusedTwinDiffers: the same algorithm with 1+q*q fused into
// one rounding — what an FMA architecture would compile it to without
// the conversion — gives other bits on some of the cases, so the
// comparison above would see a fused hypot.
func TestHypotFusedTwinDiffers(t *testing.T) {
	fused := func(p, q float64) float64 {
		p, q = math.Abs(p), math.Abs(q)
		switch {
		case math.IsInf(p, 1) || math.IsInf(q, 1):
			return math.Inf(1)
		case math.IsNaN(p) || math.IsNaN(q):
			return math.NaN()
		}
		if p < q {
			p, q = q, p
		}
		if p == 0 {
			return 0
		}
		q /= p
		return p * math.Sqrt(math.FMA(q, q, 1))
	}
	differ := 0
	for x, y := range hypotCases {
		if math.Float64bits(fused(x, y)) != math.Float64bits(hypot(x, y)) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the fused twin agrees with hypot on every case: the cases cannot tell fused from unfused")
	}
	t.Logf("the fused twin differs on %d cases", differ)
}

func TestRectEmpty(t *testing.T) {
	for _, c := range []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 4, 4}, false},
		{Rect{2, 3, 2, 3}, false}, // a single point: closed on all sides
		{Rect{5, 0, 4, 4}, true},  // inverted in X
		{Rect{0, 5, 4, 4}, true},  // inverted in Y
		{Rect{1, 1, 0, 0}, true},
		{Rect{math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1)}, false},
	} {
		if got := c.r.Empty(); got != c.want {
			t.Errorf("%v.Empty() = %v, want %v", c.r, got, c.want)
		}
	}
}
