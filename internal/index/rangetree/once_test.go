package rangetree

import (
	"fmt"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
)

// onceRects are the probes every scene gets besides the random ones:
// empty and inverted rectangles, one that covers nothing, one that covers
// exactly the first point (one leaf, plus whatever shares its lattice
// cell), everything, and half-planes with a NaN bound.
func onceRects(sc scene) []geom.Rect {
	inf := math.Inf(1)
	rects := []geom.Rect{
		{MinX: 5, MinY: 5, MaxX: 4, MaxY: 9},         // inverted in x: empty
		{MinX: 0, MinY: inf, MaxX: 11, MaxY: -inf},   // inverted in y: empty
		{MinX: 100, MinY: 100, MaxX: 200, MaxY: 200}, // beyond the lattice: nothing
		{MinX: 3.5, MinY: 0, MaxX: 3.75, MaxY: 11},   // between lattice columns: nothing
		{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf},
		{MinX: 0, MinY: 0, MaxX: 0, MaxY: 0}, // the ±0 cell
		{MinX: math.NaN(), MinY: 0, MaxX: 5, MaxY: 5},
		{MinX: 0, MinY: 0, MaxX: math.NaN(), MaxY: 5},
		{MinX: 0, MinY: math.NaN(), MaxX: 5, MaxY: 5},
		{MinX: 0, MinY: 0, MaxX: 5, MaxY: math.NaN()},
	}
	if len(sc.pts) > 0 {
		p := sc.pts[0]
		rects = append(rects, geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y})
	}
	return rects
}

// hostile overwrites some payloads with values whose sums only an
// identical association reproduces: twelve decades of magnitude, ±Inf
// (Inf − Inf is NaN from there on) and NaN itself.
func hostile(sc *scene, next func(n int) int) {
	for i := range sc.vals {
		switch next(24) {
		case 0:
			sc.vals[i] = math.Inf(1)
		case 1:
			sc.vals[i] = math.Inf(-1)
		case 2:
			sc.vals[i] = math.NaN()
		case 3, 4, 5, 6:
			sc.vals[i] *= math.Pow(10, float64(next(13)-6))
		}
	}
}

// checkOnceAgainstBuild asserts unbuilt ≡ built on one scene: for the
// special rectangles and a run of random ones, AggregateOnce adds into a
// non-zero out exactly what the built tree's Aggregate adds. Every NaN is
// one value here: which operand's NaN an addition propagates is the
// compiler's register choice, not an association.
func checkOnceAgainstBuild(t testing.TB, sc scene, next func(n int) int) {
	t.Helper()
	tr := Build(sc.pts, sc.width, sc.vals)
	rects := onceRects(sc)
	for i := 0; i < 24; i++ {
		rects = append(rects, genRect(next))
	}
	var scratch Scratch // reused across the scene's probes; every third gets none
	for ri, r := range rects {
		got, want := make([]float64, sc.width), make([]float64, sc.width)
		for c := range got {
			// A −0 accumulator turns +0 when anything — even +0 — is added:
			// it tells a skipped node from one that contributed nothing.
			v := math.Copysign(0, -1)
			if c%2 == 1 {
				v = float64(next(1<<20))/7 - 3e4
			}
			got[c], want[c] = v, v
		}
		calls := make([]int, len(sc.pts))
		sp := &scratch
		if ri%3 == 2 {
			sp = nil
		}
		AggregateOnce(sp, sc.pts, func(i int, dst []float64) {
			calls[i]++
			copy(dst, sc.vals[i*sc.width:(i+1)*sc.width])
		}, r, got)
		tr.Aggregate(r, want)
		for i, n := range calls {
			if n > 1 {
				t.Fatalf("n=%d AggregateOnce(%+v) asked for point %d's payload %d times", len(sc.pts), r, i, n)
			}
		}
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) && !(got[c] != got[c] && want[c] != want[c]) {
				t.Fatalf("n=%d width=%d AggregateOnce(%+v)[%d] = %v (%#x), built tree says %v (%#x)",
					len(sc.pts), sc.width, r, c, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
			}
		}
	}
}

// TestAggregateOnceMatchesBuild is the index-level member of the
// unbuilt ≡ built contract: over the sizes where the tree's shape changes
// (empty, single, around powers of two) and random ones, payload widths
// 0..4, lattice coordinates with ties and ±0/±Inf, exact and hostile
// payloads — and with a NaN coordinate, where AggregateOnce must notice
// and build — the one-shot evaluation reproduces the tree's answer bit
// for bit.
func TestAggregateOnceMatchesBuild(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := rng.NewStream(rng.New(seed), 17)
			sizes := []int{0, 1, 2, 3, 64, 65, 127, 128, 5, 33, 200}
			for step := 0; step < 80; step++ {
				n := st.Intn(300)
				if step < len(sizes) {
					n = sizes[step]
				}
				sc := genScene(n, step%5, st.Intn(2) == 0, st.Intn)
				if !sc.exact {
					hostile(&sc, st.Intn)
				}
				if n > 0 && st.Intn(8) == 0 {
					sc.pts[st.Intn(n)].Y = math.NaN()
				}
				checkOnceAgainstBuild(t, sc, st.Intn)
			}
		})
	}
}

// FuzzAggregateOnceMatchesBuild is the same property with the fuzzer
// choosing the scene's size and shape byte (width, exact or hostile
// payloads, a NaN coordinate); the rest comes from a stream seeded by the
// input. The committed corpus under testdata/fuzz pins the boundary sizes.
func FuzzAggregateOnceMatchesBuild(f *testing.F) {
	f.Add(uint64(1), uint16(0), byte(1))
	f.Add(uint64(2), uint16(128), byte(0x82))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, shape byte) {
		st := rng.NewStream(rng.New(seed), 19)
		n := int(size % 512)
		sc := genScene(n, int(shape&0x0f)%5, shape&0x80 == 0, st.Intn)
		if !sc.exact {
			hostile(&sc, st.Intn)
		}
		if n > 0 && shape&0x40 != 0 {
			sc.pts[st.Intn(n)].X = math.NaN()
		}
		checkOnceAgainstBuild(t, sc, st.Intn)
	})
}
