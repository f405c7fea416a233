package sorted

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
)

// guideSets are the ascending slices the guide must agree with the plain
// search on: duplicates, all-equal values, both zeros, infinite values
// at either end, a subnormal span, values near 2^31 and 2^53, one and two
// values, and a span that overflows.
func guideSets() [][]float64 {
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	p31, p53 := float64(1<<31), float64(1<<53)
	return [][]float64{
		{},
		{7},
		{negZero},
		{math.Inf(-1)},
		{inf},
		{1, 2},
		{2, 2},
		{negZero, 0},
		{0, negZero, 0, negZero},
		{3, 3, 3, 3, 3, 3},
		{1, 1, 2, 2, 2, 5, 9, 9, 10},
		{math.Inf(-1), -1, 0, 1, inf},
		{math.Inf(-1), math.Inf(-1), 4},
		{4, inf, inf},
		{math.Inf(-1), inf},
		{0, tiny, 2 * tiny, 2 * tiny, 5 * tiny},
		{-tiny, negZero, tiny},
		{p31 - 2, p31 - 1, p31 - 1, p31, p31 + 1},
		{p53 - 2, p53 - 1, p53, p53, p53 + 2},
		{-math.MaxFloat64, 0, math.MaxFloat64},
		{-math.MaxFloat64, -math.MaxFloat64 / 2, math.MaxFloat64 / 2, math.MaxFloat64},
	}
}

// probeValues are the bounds every set is probed with: each value of the
// set and its neighbours, both zeros, ±Inf, NaN, and values between.
func probeValues(a []float64) []float64 {
	vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1,
		math.SmallestNonzeroFloat64, float64(1 << 31), float64(1 << 53), math.MaxFloat64, -math.MaxFloat64}
	for i, v := range a {
		vs = append(vs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
		if i > 0 {
			vs = append(vs, a[i-1]/2+v/2)
		}
	}
	return vs
}

func checkGuide(t *testing.T, a []float64, vs []float64) {
	t.Helper()
	var g Guide
	g.Reset(a)
	for _, lo := range vs {
		for _, hi := range vs[:min(len(vs), 6)] {
			l, h, _ := g.Span(lo, hi)
			if wl, wh := LowerBound(a, lo), UpperBound(a, hi); l != wl || h != wh {
				t.Fatalf("a=%v: Span(%v, %v) = [%d, %d), binary search says [%d, %d)", a, lo, hi, l, h, wl, wh)
			}
			l, h, _ = g.Span(hi, lo)
			if wl, wh := LowerBound(a, hi), UpperBound(a, lo); l != wl || h != wh {
				t.Fatalf("a=%v: Span(%v, %v) = [%d, %d), binary search says [%d, %d)", a, hi, lo, l, h, wl, wh)
			}
		}
	}
}

// TestGuideMatchesBinarySearch holds a guide's bounds to the plain binary
// search's, to the index, on the hostile sets and on random sorted sets
// with duplicates and specials.
func TestGuideMatchesBinarySearch(t *testing.T) {
	for _, a := range guideSets() {
		checkGuide(t, a, probeValues(a))
	}
	st := rng.NewStream(rng.New(41), 1)
	for round := 0; round < 300; round++ {
		a := make([]float64, 1+st.Intn(60))
		scale := []float64{1, 1e-300, 1e300, math.SmallestNonzeroFloat64}[st.Intn(4)]
		for i := range a {
			a[i] = float64(st.Intn(40)-20) * scale
			if st.Intn(25) == 0 {
				a[i] = math.Inf(2*st.Intn(2) - 1)
			}
		}
		slices.Sort(a)
		checkGuide(t, a, probeValues(a))
	}
}

// TestGuideNaNBoundSearchesAll: a NaN bound is past every value on both
// sides, as the plain search has it, and a guide built by Search answers
// a slice holding NaN exactly as the plain search does.
func TestGuideNaNBoundSearchesAll(t *testing.T) {
	nan := math.NaN()
	var g Guide
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	g.Reset(a)
	if l, h, _ := g.Span(nan, nan); l != len(a) || h != len(a) {
		t.Fatalf("Span(NaN, NaN) = [%d, %d), want [%d, %d)", l, h, len(a), len(a))
	}
	unsorted := []float64{3, nan, 1, 7, nan, 2}
	g.Search(unsorted)
	for _, v := range []float64{nan, 0, 1, 2, 3, 5, 7, 9} {
		l, h, _ := g.Span(v, v)
		if l != LowerBound(unsorted, v) || h != UpperBound(unsorted, v) {
			t.Fatalf("Search guide, bound %v: [%d, %d), plain search [%d, %d)", v, l, h, LowerBound(unsorted, v), UpperBound(unsorted, v))
		}
	}
}

// TestGuideSearchesLittle: on values spread like a battle's positions the
// guide's window holds a value or two, so a probe's two bounds cost a few
// comparisons instead of 2·log2(n).
func TestGuideSearchesLittle(t *testing.T) {
	st := rng.NewStream(rng.New(5), 2)
	a := make([]float64, 2000)
	for i := range a {
		a[i] = float64(st.Intn(450))
	}
	slices.Sort(a)
	var g Guide
	g.Reset(a)
	steps := 0
	for i := 0; i < 1000; i++ {
		c := float64(st.Intn(450))
		_, _, s := g.Span(c-10, c+10)
		steps += s
	}
	if per := float64(steps) / 1000; per > 6 {
		t.Fatalf("%.2f comparisons per span, want a handful (binary search: ≈ 22)", per)
	}
}

// TestResortMatchesSort: from the sorted order of slightly moved keys,
// from a reversed one (the budget runs out) and from random ones, Resort
// yields slices.SortFunc's permutation, and reports the fallback exactly
// when its budget ran out.
func TestResortMatchesSort(t *testing.T) {
	st := rng.NewStream(rng.New(9), 3)
	for _, n := range []int{0, 1, 2, 3, 17, 200, 1000} {
		for _, start := range []string{"near", "reversed", "random"} {
			t.Run(fmt.Sprintf("n=%d/%s", n, start), func(t *testing.T) {
				keys := make([]int, n)
				for i := range keys {
					keys[i] = st.Intn(n/2 + 1)
				}
				cmp := func(a, b int32) int {
					if c := keys[a] - keys[b]; c != 0 {
						return c
					}
					return int(a - b)
				}
				s := make([]int32, n)
				for i := range s {
					s[i] = int32(i)
				}
				slices.SortFunc(s, cmp)
				switch start {
				case "near":
					for i := range keys {
						keys[i] += st.Intn(3) - 1
					}
				case "reversed":
					slices.Reverse(s)
				case "random":
					for i := len(s) - 1; i > 0; i-- {
						j := st.Intn(i + 1)
						s[i], s[j] = s[j], s[i]
					}
				}
				want := slices.Clone(s)
				slices.SortFunc(want, cmp)
				w := Resort(s, cmp)
				if !slices.Equal(s, want) {
					t.Fatalf("Resort = %v, SortFunc = %v", s, want)
				}
				if w.Points != n {
					t.Fatalf("Points = %d, want %d", w.Points, n)
				}
				if (w.Moved > moveBudget*n) != (w.Fallbacks == 1) {
					t.Fatalf("moved %d of budget %d, fallbacks %d", w.Moved, moveBudget*n, w.Fallbacks)
				}
				if start == "reversed" && n > 2*moveBudget+1 && w.Fallbacks != 1 {
					t.Fatalf("a reversed start of %d moved %d without falling back", n, w.Moved)
				}
			})
		}
	}
}

func TestWorkAdd(t *testing.T) {
	w := Work{Points: 3, Moved: 5, Fallbacks: 1}
	w.Add(Work{Points: 10, Moved: 2})
	w.Add(Work{})
	if want := (Work{Points: 13, Moved: 7, Fallbacks: 1}); w != want {
		t.Fatalf("Work = %+v, want %+v", w, want)
	}
}

// TestGuideEqual: guides over the same values are equal bit for bit,
// whichever storage they reuse, and a changed value or length is seen.
func TestGuideEqual(t *testing.T) {
	a := []float64{-3, 0, 0, 1.5, 7, 7, 40}
	var g, h Guide
	g.Reset(a)
	h.Reset([]float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	h.Reset(slices.Clone(a))
	if !g.Equal(&h) || !h.Equal(&g) {
		t.Fatal("guides over equal values differ")
	}
	b := slices.Clone(a)
	b[3] = 1.25
	var k Guide
	k.Reset(b)
	if g.Equal(&k) {
		t.Fatal("guides over different values compare equal")
	}
	var z0, z1 Guide
	z0.Reset([]float64{0})
	z1.Reset([]float64{math.Copysign(0, -1)})
	if z0.Equal(&z1) {
		t.Fatal("guides over 0 and -0 compare equal; Equal is bitwise")
	}
	k.Reset(a[:5])
	if g.Equal(&k) {
		t.Fatal("guides over different lengths compare equal")
	}
}
