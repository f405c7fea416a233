package engine

import (
	"math"
	"slices"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/grid"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/table"
)

// movePlan is one survivor's world-clamped candidate squares: full step,
// then the two axis-aligned slides ("very simple pathfinding").
type movePlan struct {
	cands  [3]geom.Point
	active bool
}

// postProcess runs the post-processing query (Example 4.1) and move
// planning as one pass: per row, Game.ApplyEffects folds the combined
// effects into the row and planMove records its fate. Both touch that
// row alone, so the pass shards; each shard counts its deaths, and notes
// a unit ApplyEffects moved, in its shardOut slot, merged in shard order.
func (e *Engine) postProcess(acc *accumulator) {
	n := e.env.Len()
	if len(e.plans) != n {
		e.plans, e.dead = make([]movePlan, n), make([]bool, n)
	}
	bounds := e.shards(n)
	runShards(bounds, func(s, lo, hi int) {
		out := &e.outs[s]
		out.deaths, out.moved = 0, false
		for i := lo; i < hi; i++ {
			row := e.env.Rows[i]
			x, y := row[e.posX], row[e.posY]
			mv, alive := e.game.ApplyEffects(row, acc.vals[i])
			if !alive {
				out.deaths++
			}
			out.moved = out.moved || row[e.posX] != x || row[e.posY] != y
			e.planMove(i, mv, alive)
		}
	})
	for s := range bounds {
		e.Stats.Deaths += e.outs[s].deaths
		if e.outs[s].moved {
			e.occ.invalidate()
		}
	}
}

// planMove records row i's fate. A survivor's candidates depend only on
// its own row and move vector, so planning is order-independent.
func (e *Engine) planMove(i int, mv geom.Vec, alive bool) {
	e.dead[i] = !alive
	p := &e.plans[i]
	if p.active = alive && (mv.X != 0 || mv.Y != 0); !p.active {
		return
	}
	row := e.env.Rows[i]
	mv = mv.Clamp(e.opts.MoveSpeed)
	x, y := row[e.posX], row[e.posY]
	p.cands = [3]geom.Point{
		e.clampToWorld(geom.Point{X: x + mv.X, Y: y + mv.Y}),
		e.clampToWorld(geom.Point{X: x + mv.X, Y: y}),
		e.clampToWorld(geom.Point{X: x, Y: y + mv.Y}),
	}
}

// move is the claim sweep, serial by design: each planned move, in a
// seeded random permutation ("in random order"), observes the occupancy
// left by every earlier one, a sequential chain the state-effect
// argument does not cover. Plans and permutation are the same at any
// shard count, so the stage is bit-identical at any Workers value.
func (e *Engine) move() {
	e.occ.sync()
	e.perm = slices.Grow(e.perm[:0], len(e.plans))[:len(e.plans)]
	rng.NewStream(e.src, 1_000_000+e.tick).Perm(e.perm)
	for _, i := range e.perm {
		if !e.plans[i].active {
			continue
		}
		moved := false
		for _, c := range e.plans[i].cands {
			// A NaN move survives the clamps (every comparison with NaN
			// is false) and would name an implementation-defined square:
			// a candidate outside the world is blocked.
			if moved = inWorld(c.X, e.opts.Side) && inWorld(c.Y, e.opts.Side) && e.occ.move(i, c.X, c.Y); moved {
				break
			}
		}
		if moved {
			e.Stats.Moves++
		} else {
			e.Stats.MovesBlocked++
		}
	}
}

// clampToWorld pulls a candidate position back inside [0, Side), the
// inWorld rule Open checks, so a world movement produced always reopens.
// From Side 2^24 up, Side-1e-9 rounds back to Side; there the largest
// float below Side is the bound instead.
func (e *Engine) clampToWorld(p geom.Point) geom.Point {
	max := e.opts.Side - 1e-9
	if max >= e.opts.Side {
		max = math.Nextafter(e.opts.Side, 0)
	}
	return geom.Rect{MinX: 0, MinY: 0, MaxX: max, MaxY: max}.ClampPoint(p)
}

// resurrect respawns the rows marked dead at random free squares, which
// keeps the population constant (Section 6).
func (e *Engine) resurrect(dead []bool) {
	e.occ.vacate(dead)
	kc := e.prog.Schema.KeyCol()
	for i, row := range e.env.Rows {
		if !dead[i] {
			continue
		}
		// Each corpse draws from its own substream keyed by (tick, unit):
		// the draw sequence is independent of resurrection order and of
		// the worker count, so respawns stay bit-identical at any
		// parallelism. (Square conflicts are still resolved serially in
		// row order below.)
		st := e.src.Substream(2_000_000+e.tick, int64(row[kc]))
		e.game.Respawn(row, st)
		// In float64: from Side ≈ 1e9 up, 10·Side² overflows an int.
		for tries := 0; !e.occ.claim(i, float64(st.Intn(int(e.opts.Side))), float64(st.Intn(int(e.opts.Side)))); tries++ {
			if float64(tries) > 10*e.opts.Side*e.opts.Side {
				// Pathological full grid: stack at origin rather than spin.
				// The unit now shares a square.
				row[e.posX], row[e.posY] = 0, 0
				e.occ.invalidate()
				break
			}
		}
	}
}

// occupancy is the one-unit-per-square record the command mirror,
// movement and resurrection share, carried across ticks; only its
// methods write it. Squares map to the row index of the unit holding
// them (grid.Occupancy over a flat table), so the claim sweep hashes no
// key; a despawn renumbers the rows after the one it cut (drop). exact
// says taken holds exactly the rows' squares, one unit each, as a
// row-order refill builds it; every claim, move and release through the
// record keeps it so. It is false until the first refill, after
// ApplyEffects moved a unit, and while two units share a square: there
// the refill, which lets the earlier row hold it, decides.
type occupancy struct {
	env    *table.Table
	px, py int
	taken  *grid.Occupancy
	exact  bool
}

// sync refills an inexact record; an exact one already matches the rows.
func (o *occupancy) sync() {
	if !o.exact {
		o.refill(nil)
	}
}

// vacate releases the squares of the rows marked dead; an inexact
// record refills without them.
func (o *occupancy) vacate(dead []bool) {
	if !o.exact {
		o.refill(dead)
		return
	}
	for i, row := range o.env.Rows {
		if dead[i] {
			o.taken.Remove(row[o.px], row[o.py], int32(i))
		}
	}
}

// refill rebuilds the table from scratch: every row not marked in skip
// (nil: every row) claims its square in row order.
func (o *occupancy) refill(skip []bool) {
	o.taken.Reset()
	o.exact = true
	for i, row := range o.env.Rows {
		if (skip == nil || !skip[i]) && !o.taken.Place(row[o.px], row[o.py], int32(i)) {
			o.exact = false
		}
	}
}

// move relocates row i's unit to (x, y), row and table, unless another
// unit holds that square; a move within its own square succeeds.
func (o *occupancy) move(i int, x, y float64) bool {
	row := o.env.Rows[i]
	if !o.taken.Move(row[o.px], row[o.py], x, y, int32(i)) {
		return false
	}
	row[o.px], row[o.py] = x, y
	return true
}

// claim places row i's unit on the square of (x, y) unless another unit
// holds it.
func (o *occupancy) claim(i int, x, y float64) bool {
	row := o.env.Rows[i]
	if !o.taken.Place(x, y, int32(i)) {
		return false
	}
	row[o.px], row[o.py] = x, y
	return true
}

// place claims the square of (x, y) for the unit a spawn command appends
// as row i.
func (o *occupancy) place(i int, x, y float64) bool { return o.taken.Place(x, y, int32(i)) }

// drop releases the square of row i, which a despawn is about to cut out
// of the rows, and renumbers the holders after it.
func (o *occupancy) drop(i int) {
	row := o.env.Rows[i]
	o.taken.Remove(row[o.px], row[o.py], int32(i))
	o.taken.CloseGap(int32(i))
}

// invalidate marks the record inexact, for the next sync to refill.
func (o *occupancy) invalidate() { o.exact = false }
