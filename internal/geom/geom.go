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

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Add translates p by v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// ChebyshevDist returns the L∞ distance between p and q. A unit with a
// square "in range" box of half-extent r covers exactly the points at
// Chebyshev distance ≤ r, so this is the natural metric for the paper's
// rectangular range conditions.
func (p Point) ChebyshevDist(q Point) float64 {
	return math.Max(math.Abs(p.X-q.X), math.Abs(p.Y-q.Y))
}

// Add returns the componentwise sum of v and w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns the componentwise difference of v and w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Neg returns the opposite vector.
func (v Vec) Neg() Vec { return Vec{-v.X, -v.Y} }

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

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns v scaled to unit length. The zero vector normalizes to the
// zero vector, matching the post-processing query's convention that a unit
// with no movement intent stays put.
func (v Vec) Norm() Vec {
	l := v.Len()
	if l == 0 {
		return Vec{}
	}
	return Vec{v.X / l, v.Y / l}
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
	return v.Scale(max / l)
}

// Rect is an axis-aligned rectangle, closed on all sides: it contains the
// points with MinX ≤ x ≤ MaxX and MinY ≤ y ≤ MaxY. An inverted rectangle
// (Min > Max on either axis) is empty.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// RectAround returns the square of half-extent r centered at p — the shape
// of every "in range" condition in the battle simulation.
func RectAround(p Point, r float64) Rect {
	return Rect{p.X - r, p.Y - r, p.X + r, p.Y + r}
}

// RectSpanning returns the smallest rectangle containing both p and q.
func RectSpanning(p, q Point) Rect {
	return Rect{
		math.Min(p.X, q.X), math.Min(p.Y, q.Y),
		math.Max(p.X, q.X), math.Max(p.Y, q.Y),
	}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		math.Max(r.MinX, s.MinX), math.Max(r.MinY, s.MinY),
		math.Min(r.MaxX, s.MaxX), math.Min(r.MaxY, s.MaxY),
	}
}

// Union returns the smallest rectangle containing both r and s. Unioning
// with an empty rectangle returns the other operand.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		math.Min(r.MinX, s.MinX), math.Min(r.MinY, s.MinY),
		math.Max(r.MaxX, s.MaxX), math.Max(r.MaxY, s.MaxY),
	}
}

// Width returns the X extent of r (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the Y extent of r (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the area of r (0 for empty rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the midpoint of r.
func (r Rect) Center() Point { return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2} }

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
