// Package grid implements a uniform-bucket spatial index. It serves two
// roles in the reproduction:
//
//   - an *ablation baseline* against the layered range tree: bucket grids
//     are what 2007-era games actually shipped, and the benchmark suite
//     compares them (they degrade when ranges are large relative to the
//     cell size — the d20 visibility scenario the paper argues for);
//   - the occupancy structure for the movement phase's collision detection
//     ("this is done in random order, with collision detection and very
//     simple pathfinding rules", Section 6).
package grid

import (
	"math"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/ordmap"
)

// Index is a uniform grid over points with sum-combinable payloads, the
// same payload model as the range tree. Build per tick; concurrent reads
// are safe.
type Index struct {
	cell       float64
	width      int
	minX, minY float64
	nx, ny     int
	cells      [][]int32 // point indexes per cell
	pts        []geom.Point
	vals       []float64
}

// Build constructs a grid with the given cell size over pts, whose payload
// vectors (width values each) are flattened in vals.
func Build(pts []geom.Point, width int, vals []float64, cellSize float64) *Index {
	if cellSize <= 0 {
		panic("grid: non-positive cell size")
	}
	if len(vals) != len(pts)*width {
		panic("grid: vals length does not match points*width")
	}
	g := &Index{cell: cellSize, width: width, pts: pts, vals: vals}
	if len(pts) == 0 {
		g.nx, g.ny = 1, 1
		g.cells = make([][]int32, 1)
		return g
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	g.minX, g.minY = minX, minY
	g.nx = int((maxX-minX)/cellSize) + 1
	g.ny = int((maxY-minY)/cellSize) + 1
	g.cells = make([][]int32, g.nx*g.ny)
	for i, p := range pts {
		c := g.cellOf(p.X, p.Y)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

func (g *Index) cellOf(x, y float64) int {
	cx := int((x - g.minX) / g.cell)
	cy := int((y - g.minY) / g.cell)
	return cy*g.nx + cx
}

// Len returns the number of indexed points.
func (g *Index) Len() int { return len(g.pts) }

// Aggregate adds the payload sum over points inside r into out (length
// Width). Cells fully inside r are folded without per-point tests would
// require per-cell prefix sums; this baseline intentionally scans, which is
// exactly what makes it degrade on large ranges.
func (g *Index) Aggregate(r geom.Rect, out []float64) {
	if len(out) != g.width {
		panic("grid: out width mismatch")
	}
	g.visit(r, func(i int) {
		base := i * g.width
		for c := 0; c < g.width; c++ {
			out[c] += g.vals[base+c]
		}
	})
}

// Count returns the number of points inside r.
func (g *Index) Count(r geom.Rect) int {
	n := 0
	g.visit(r, func(int) { n++ })
	return n
}

// Report calls fn for every point index inside r.
func (g *Index) Report(r geom.Rect, fn func(i int)) { g.visit(r, fn) }

func (g *Index) visit(r geom.Rect, fn func(i int)) {
	if len(g.pts) == 0 || r.Empty() {
		return
	}
	cx0 := int(math.Floor((r.MinX - g.minX) / g.cell))
	cy0 := int(math.Floor((r.MinY - g.minY) / g.cell))
	cx1 := int(math.Floor((r.MaxX - g.minX) / g.cell))
	cy1 := int(math.Floor((r.MaxY - g.minY) / g.cell))
	cx0, cy0 = clampInt(cx0, 0, g.nx-1), clampInt(cy0, 0, g.ny-1)
	cx1, cy1 = clampInt(cx1, 0, g.nx-1), clampInt(cy1, 0, g.ny-1)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			g.visitBucket(g.cells[cy*g.nx+cx], r, fn)
		}
	}
}

func (g *Index) visitBucket(bucket []int32, r geom.Rect, fn func(i int)) {
	for _, i := range bucket {
		p := g.pts[i]
		if p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY {
			fn(int(i))
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Occupancy tracks which integer grid squares are occupied, for the
// movement phase. The game grid is 1×1 squares; a square holds at most one
// unit ("1 percent of game grid squares occupied" defines the paper's
// density parameter). A holder is an ordinal — the engine's row index of
// the unit — and the squares live in a flat table (ordmap), keyed by
// their packed coordinates: no claim, move or release hashes through a
// Go map.
type Occupancy struct {
	taken ordmap.Map // packed square → holder
}

// Square is one integer grid square: the floors of a position's
// coordinates.
type Square [2]int32

// SquareOf returns the square containing (x, y).
func SquareOf(x, y float64) Square {
	return Square{int32(math.Floor(x)), int32(math.Floor(y))}
}

// pack is a square's table key: x in the high word, y in the low, so
// every square has its own key, (−2^31, 0) the table's empty marker
// included.
func (s Square) pack() int64 { return int64(uint64(uint32(s[0]))<<32 | uint64(uint32(s[1]))) }

// NewOccupancy returns an empty occupancy table sized for capacity units.
func NewOccupancy(capacity int) *Occupancy {
	return &Occupancy{taken: *ordmap.New(capacity)}
}

// Reset empties the table, keeping its storage for the next fill.
func (o *Occupancy) Reset() { o.taken.Reset() }

// Occupied reports whether the square containing (x, y) is taken, and by
// which holder.
func (o *Occupancy) Occupied(x, y float64) (int32, bool) {
	return o.taken.Get(SquareOf(x, y).pack())
}

// Place marks the square containing (x, y) as held by who. It returns
// false (without modifying anything) if another holder already has it.
func (o *Occupancy) Place(x, y float64, who int32) bool { return o.Claim(SquareOf(x, y), who) }

// Claim is Place by square.
func (o *Occupancy) Claim(s Square, who int32) bool {
	k := s.pack()
	if holder, ok := o.taken.Get(k); ok {
		return holder == who
	}
	o.taken.Put(k, who)
	return true
}

// Remove releases the square containing (x, y) if who holds it.
func (o *Occupancy) Remove(x, y float64, who int32) { o.Release(SquareOf(x, y), who) }

// Release is Remove by square.
func (o *Occupancy) Release(s Square, who int32) {
	k := s.pack()
	if holder, ok := o.taken.Get(k); ok && holder == who {
		o.taken.Delete(k)
	}
}

// Move atomically relocates a holder between squares: it fails (returning
// false, with no state change) if the destination square is held by
// another. Moving within the same square always succeeds.
func (o *Occupancy) Move(fromX, fromY, toX, toY float64, who int32) bool {
	from, to := SquareOf(fromX, fromY), SquareOf(toX, toY)
	if from == to {
		return true
	}
	tk := to.pack()
	if holder, ok := o.taken.Get(tk); ok && holder != who {
		return false
	}
	o.Release(from, who)
	o.taken.Put(tk, who)
	return true
}

// CloseGap renumbers the holders after holder gone was cut out of the
// population: every holder above it drops by one, as row indexes do.
func (o *Occupancy) CloseGap(gone int32) { o.taken.CloseGap(gone) }

// Size returns the number of occupied squares.
func (o *Occupancy) Size() int { return o.taken.Len() }
