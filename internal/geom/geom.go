// Package geom provides the planar geometry primitives used throughout the
// engine: points, vectors, and axis-aligned rectangles.
//
// The paper's index structures (Section 5.3) operate on orthogonal range
// queries, i.e. axis-aligned rectangles; games prefer rectangles (or L1
// "diamonds", which are rotated rectangles) over circles for areas of effect.
// All coordinates are float64 game-grid units.
package geom

import "math"

// Point is a location on the game grid.
type Point struct {
	X, Y float64
}

// Vec is a displacement between two points.
type Vec struct {
	X, Y float64
}

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return hypot(v.X, v.Y) }

// hypot is math.Hypot's algorithm — the larger magnitude p times
// √(1 + (q/p)²) — written so that no compiler fuses it. The conversion
// rounds q*q before the add; without it arm64, ppc64le, s390x, riscv64
// and loong64 compute 1+q*q as one fused multiply-add, a length moves
// by an ulp, and the checkpoint bytes with it. On amd64 it is
// math.Hypot bit for bit, special cases included: +Inf when either side
// is infinite, else NaN when either is NaN.
func hypot(p, q float64) float64 {
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
	return p * math.Sqrt(1+float64(q*q))
}

// Clamp returns v shortened to length at most max (a unit cannot move more
// than its per-tick walk distance).
func (v Vec) Clamp(max float64) Vec {
	if max <= 0 {
		return Vec{}
	}
	l := v.Len()
	if l <= max {
		return v
	}
	s := max / l
	return Vec{v.X * s, v.Y * s}
}

// Rect is an axis-aligned rectangle, closed on all sides: it contains the
// points with MinX ≤ x ≤ MaxX and MinY ≤ y ≤ MaxY. An inverted rectangle
// (Min > Max on either axis) is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// ClampPoint returns the point of r nearest to p. For empty rectangles the
// result is unspecified but finite.
func (r Rect) ClampPoint(p Point) Point {
	return Point{clamp(p.X, r.MinX, r.MaxX), clamp(p.Y, r.MinY, r.MaxY)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
