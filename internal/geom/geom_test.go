package geom

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
)

func TestPointSubAdd(t *testing.T) {
	p := Point{3, 4}
	q := Point{1, 1}
	v := p.Sub(q)
	if v != (Vec{2, 3}) {
		t.Fatalf("Sub = %v, want {2 3}", v)
	}
	if got := q.Add(v); got != p {
		t.Fatalf("q.Add(p.Sub(q)) = %v, want %v", got, p)
	}
}

func TestDistances(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := p.DistSq(q); d != 25 {
		t.Errorf("DistSq = %v, want 25", d)
	}
	if d := p.ChebyshevDist(q); d != 4 {
		t.Errorf("ChebyshevDist = %v, want 4", d)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{1, 2}
	w := Vec{3, -1}
	if got := v.Add(w); got != (Vec{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != (Vec{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got != (Vec{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Neg(); got != (Vec{-1, -2}) {
		t.Errorf("Neg = %v", got)
	}
	if got := v.Dot(w); got != 1 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Vec{3, 4}).Len(); got != 5 {
		t.Errorf("Len = %v", got)
	}
}

func TestVecNorm(t *testing.T) {
	if got := (Vec{0, 0}).Norm(); got != (Vec{}) {
		t.Errorf("zero Norm = %v, want zero", got)
	}
	n := (Vec{3, 4}).Norm()
	if math.Abs(n.Len()-1) > 1e-12 {
		t.Errorf("Norm length = %v, want 1", n.Len())
	}
	if math.Abs(n.X-0.6) > 1e-12 || math.Abs(n.Y-0.8) > 1e-12 {
		t.Errorf("Norm = %v, want {0.6 0.8}", n)
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
}

func TestRectAroundContains(t *testing.T) {
	r := RectAround(Point{10, 10}, 3)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{10, 10}, true},
		{Point{13, 13}, true}, // boundary inclusive
		{Point{7, 7}, true},   // boundary inclusive
		{Point{13.1, 10}, false},
		{Point{10, 6.9}, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectSpanning(t *testing.T) {
	r := RectSpanning(Point{5, 1}, Point{2, 9})
	want := Rect{2, 1, 5, 9}
	if r != want {
		t.Fatalf("RectSpanning = %v, want %v", r, want)
	}
}

func TestRectEmptyIntersect(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	got := a.Intersect(b)
	if got != (Rect{2, 2, 4, 4}) {
		t.Errorf("Intersect = %v", got)
	}
	c := Rect{5, 5, 9, 9}
	if !a.Intersect(c).Empty() {
		t.Errorf("disjoint rects should intersect empty")
	}
	if (Rect{1, 1, 0, 0}).Empty() != true {
		t.Errorf("inverted rect should be empty")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, 2, 3, 3}
	if got := a.Union(b); got != (Rect{0, 0, 3, 3}) {
		t.Errorf("Union = %v", got)
	}
	empty := Rect{1, 1, 0, 0}
	if got := a.Union(empty); got != a {
		t.Errorf("Union with empty = %v, want %v", got, a)
	}
	if got := empty.Union(b); got != b {
		t.Errorf("empty.Union = %v, want %v", got, b)
	}
}

func TestRectMeasures(t *testing.T) {
	r := Rect{1, 2, 5, 4}
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("measures: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if c := r.Center(); c != (Point{3, 3}) {
		t.Errorf("Center = %v", c)
	}
	empty := Rect{2, 2, 1, 1}
	if empty.Width() != 0 || empty.Height() != 0 || empty.Area() != 0 {
		t.Errorf("empty rect measures should be zero")
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

// Property: RectAround(p, r).Contains(q) iff Chebyshev distance ≤ r.
func TestRectAroundMatchesChebyshev(t *testing.T) {
	f := func(px, py, qx, qy float64, r float64) bool {
		if math.IsNaN(px) || math.IsNaN(py) || math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(r) {
			return true
		}
		r = math.Abs(math.Mod(r, 100))
		p := Point{math.Mod(px, 1000), math.Mod(py, 1000)}
		q := Point{math.Mod(qx, 1000), math.Mod(qy, 1000)}
		return RectAround(p, r).Contains(q) == (p.ChebyshevDist(q) <= r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: normalizing any nonzero vector yields length 1 (within epsilon),
// and clamping never exceeds the bound.
func TestNormClampProperties(t *testing.T) {
	f := func(x, y, m float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(m) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		v := Vec{math.Mod(x, 1e6), math.Mod(y, 1e6)}
		if v.Len() > 0 {
			if math.Abs(v.Norm().Len()-1) > 1e-9 {
				return false
			}
		}
		m = math.Abs(math.Mod(m, 1e4))
		return v.Clamp(m).Len() <= m*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: intersection is contained in both operands; union contains both.
func TestIntersectUnionProperties(t *testing.T) {
	f := func(a, b, c, d, e, f2, g, h float64) bool {
		for _, v := range []float64{a, b, c, d, e, f2, g, h} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		r := RectSpanning(Point{math.Mod(a, 100), math.Mod(b, 100)}, Point{math.Mod(c, 100), math.Mod(d, 100)})
		s := RectSpanning(Point{math.Mod(e, 100), math.Mod(f2, 100)}, Point{math.Mod(g, 100), math.Mod(h, 100)})
		i := r.Intersect(s)
		u := r.Union(s)
		if !i.Empty() {
			if !r.Contains(i.Center()) || !s.Contains(i.Center()) {
				return false
			}
		}
		return u.Contains(r.Center()) && u.Contains(s.Center())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
