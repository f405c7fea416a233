package engine

import (
	"math"
	"slices"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/rangetree"
	"github.com/epicscale/sgl/internal/index/segtree"
	"github.com/epicscale/sgl/internal/index/sweepline"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/table"
)

// performer is one unit that decided to execute an area action this tick,
// with its evaluated action arguments.
type performer struct {
	unit []float64
	args []float64
}

// shardExecutor returns shard s's plan executor bound to this tick: built
// on the shard's first tick, rebound — row storage and arena kept — on
// every later one. Shards run concurrently, each touching only its slot.
func (e *Engine) shardExecutor(s int, prov *exec.Indexed, r rng.TickSource, lo, hi int) (*algebra.Executor, error) {
	if x := e.execs[s]; x != nil {
		return x, x.Rebind(e.env, prov, r, lo, hi)
	}
	x, err := algebra.NewExecutorRange(e.prog, e.plan, e.env, prov, r, lo, hi)
	if err != nil {
		return nil, err
	}
	e.execs[s] = x
	return x, nil
}

// shardOut is one decision shard's output, kept on the engine from tick
// to tick (Engine.outs) so that a steady-state tick allocates none of it:
// the effect rows it emitted, flattened at the schema's width, Apply node
// j's rows in effects[ends[j]:ends[j+1]], and the row index of each
// one's target, in the same order; the deferrable area performers
// per Apply node; its argument scratch; its provider fork's probe
// counters; and what the post-processing pass saw in its rows: how many
// units died, and whether ApplyEffects moved one.
type shardOut struct {
	effects []float64
	targets []int32
	ends    []int
	perf    [][]performer
	args    []float64
	stats   exec.Stats
	deaths  int
	moved   bool
}

// foldEffects folds buffered effect rows into the accumulator in buffer
// order, each into its target's row — the index target selection
// handed over with it — crediting them to shard s.
func (e *Engine) foldEffects(s int, rows []float64, targets []int32, acc *accumulator) {
	w := e.prog.Schema.NumAttrs()
	for j, ri := range targets {
		acc.foldRow(int(ri), rows[j*w:(j+1)*w])
		e.countEffect(s)
	}
}

// decide is the decision phase of both modes: the compiled set-at-a-time
// plan over an exec.Indexed provider, sharded. The modes differ only in
// the provider's analyzer. Naive's (exec.NewScanAnalyzer) makes every
// probe one compiled pass over all rows — the Figure 10 baseline — and
// keys, partitions and defers nothing, so its master builds no index.
//
// Each shard evaluates the plan restricted to its row range with its own
// Executor, buffering effect rows per Apply node and collecting
// deferrable area performers, which apply after the barrier through the
// Section 5.4 effect index. With several shards the master provider
// builds every index up front (FreezeParallel spreads the builds over the
// workers) and each shard probes it through its own Fork; a single shard
// probes the master itself, which builds what it is asked for, when it
// is asked.
//
// Every path iterates e.applies — Plan.Applies(), taken once at
// construction — and the merge folds node-major, shard-minor: within a
// node, shard order is global performer-row order, so every target's
// fold sequence is the same bit for bit at any shard count.
func (e *Engine) decide(r rng.TickSource, acc *accumulator) error {
	master := e.newIndexedProvider(r)
	bounds := e.shards(e.env.Len())
	forked := len(bounds) > 1
	if forked {
		master.FreezeParallel(e.workers)
	}
	if err := runShardsErr(bounds, func(s, lo, hi int) error {
		return e.decideShard(s, lo, hi, master, forked, r)
	}); err != nil {
		return err
	}

	w := e.prog.Schema.NumAttrs()
	for j := range e.applies {
		for s := range bounds {
			out := &e.outs[s]
			lo, hi := out.ends[j], out.ends[j+1]
			e.foldEffects(s, out.effects[lo:hi], out.targets[lo/w:hi/w], acc)
		}
	}

	// Deferred area actions, in discovery order: a definition enters the
	// order at the first (node, row) that deferred a performer, and its
	// performers concatenate node-major, shard-minor. They gather by the
	// Apply's action slot (actSlot), in storage kept from tick to tick.
	for slot := range e.deferred {
		e.deferred[slot] = e.deferred[slot][:0]
	}
	order := e.deferOrder[:0]
	for j := range e.applies {
		slot := e.actSlot[j]
		for s := range bounds {
			ps := e.outs[s].perf[j]
			if len(ps) == 0 {
				continue
			}
			if len(e.deferred[slot]) == 0 {
				order = append(order, slot)
			}
			e.deferred[slot] = append(e.deferred[slot], ps...)
		}
	}
	e.deferOrder = order
	for _, slot := range order {
		e.applyDeferredArea(e.slotActs[slot], e.deferred[slot], r, acc)
	}

	e.Stats.IndexStats.Add(master.Stats)
	if forked {
		for s := range bounds {
			e.Stats.IndexStats.Add(e.outs[s].stats)
		}
	}
	return nil
}

// decideShard evaluates the plan over rows [lo, hi) into e.outs[s],
// probing master through a private fork when forked.
func (e *Engine) decideShard(s, lo, hi int, master *exec.Indexed, forked bool, r rng.TickSource) error {
	out := &e.outs[s]
	prov := master
	if forked {
		prov = master.Fork()
	}
	x, err := e.shardExecutor(s, prov, r, lo, hi)
	if err != nil {
		return err
	}
	w := e.prog.Schema.NumAttrs()
	out.effects, out.targets, out.ends = out.effects[:0], out.targets[:0], append(out.ends[:0], 0)
	if len(out.perf) != len(e.applies) {
		out.perf = make([][]performer, len(e.applies))
	}
	for j, ap := range e.applies {
		// One target visitor per Apply, not per row: the row and its
		// arguments reach it through these two variables.
		var unit, args []float64
		buffer := func(ri int, tgt []float64) {
			n := len(out.effects)
			out.effects = slices.Grow(out.effects, w)[:n+w]
			x.BuildEffectRow(out.effects[n:], ap.Def, unit, args, tgt)
			out.targets = append(out.targets, int32(ri))
		}
		deferThis := e.deferApply[j]
		perf := out.perf[j][:0]
		err := x.EachUnit(ap.In, func(row *algebra.Row) error {
			if deferThis {
				perf = append(perf, performer{unit: row.Unit, args: x.ApplyArgs(nil, ap, row)})
				return nil
			}
			out.args = x.ApplyArgs(out.args[:0], ap, row)
			unit, args = row.Unit, out.args
			prov.SelectTargetRows(ap.Def, lo+row.Ord(), unit, args, buffer)
			return nil
		})
		out.perf[j] = perf
		if err != nil {
			return err
		}
		out.ends = append(out.ends, len(out.effects))
	}
	out.stats = prov.Stats
	return nil
}

// effectIndex is the engine-owned storage of the Section 5.4 effect
// index: one range tree and one sweep order/sweeper — one structure per
// combine kind — rebuilt in place for every (group, SET column), plus the
// grouping tables and build inputs, all kept from tick to tick.
type effectIndex struct {
	groups   []effectGroup
	groupOf  map[effectGroupKey]int32
	eqIDs    map[string]int32 // eq values' bits → class number, per call
	eqKey    []byte
	eqVals   []float64
	eligible []bool
	targets  []int

	rt      rangetree.Tree
	pts     []rangetree.Point
	order   sweepline.Order
	sweeper sweepline.Sweeper
	sites   []sweepline.Site
	probes  []sweepline.Probe
	vals    []float64
}

// effectGroupKey identifies performers whose effect areas have the same
// shape and the same categorical requirements.
type effectGroupKey struct {
	offLoX, offHiX, offLoY, offHiY float64
	eq                             int32
}

// effectGroup is one group's centers of effect: positions, and the SET
// values flattened center-major.
type effectGroup struct {
	key    effectGroupKey
	eqVals []float64
	xs, ys []float64
	vals   []float64
}

// applyDeferredArea implements the paper's Section 5.4 ⊕-optimization:
// "to optimize ⊕, we arrange our query plan to group together all actions
// of the same type. For each such action we construct an index that
// contains their centers of effect. Applying ⊕ now consists of performing
// an aggregate on this index; for stackable effects this action is sum,
// and for nonstackable effects it is max."
//
// Performers with identical range offsets and identical categorical
// requirements form one group; each group's centers are indexed once and
// every unit recovers its combined contribution with one probe per SET
// column.
func (e *Engine) applyDeferredArea(def *ast.ActDef, performers []performer, r rng.TickSource, acc *accumulator) {
	a := e.an.Act(def)
	fx := &e.fx
	nSet := len(a.SetFn)

	axCol := func(i int) int {
		if i < len(a.Axes) {
			return a.Axes[i].Col
		}
		return -1
	}
	// at reads a row's coordinate on axis i, 0 where the axis is absent.
	at := func(row []float64, i int) float64 {
		if c := axCol(i); c >= 0 {
			return row[c]
		}
		return 0
	}
	axisOffsets := func(f *expr.Frame, ax int) (lo, hi float64) {
		lo, hi = math.Inf(-1), math.Inf(1)
		if ax >= len(a.Axes) {
			return lo, hi
		}
		base := f.Unit[a.Axes[ax].Col]
		if fn := a.Axes[ax].LoFn; fn != nil {
			lo = fn(f) - base
		}
		if fn := a.Axes[ax].HiFn; fn != nil {
			hi = fn(f) - base
		}
		return lo, hi
	}

	// Everything evaluated per performer is a function of the performer
	// alone (that is what made the action deferrable), so the performer
	// row stands in for e as well.
	if fx.groupOf == nil {
		fx.groupOf, fx.eqIDs = map[effectGroupKey]int32{}, map[string]int32{}
	}
	clear(fx.groupOf)
	clear(fx.eqIDs)
	fx.groups = fx.groups[:0]
	f := &expr.Frame{R: r}
performers:
	for _, p := range performers {
		f.Unit, f.Args, f.Target = p.unit, p.args, p.unit
		// u-only conjuncts gate the performer entirely.
		for _, c := range a.UOnlyFn {
			if !c(f) {
				continue performers
			}
		}
		var gk effectGroupKey
		gk.offLoX, gk.offHiX = axisOffsets(f, 0)
		gk.offLoY, gk.offHiY = axisOffsets(f, 1)
		fx.eqKey, fx.eqVals = fx.eqKey[:0], fx.eqVals[:0]
		for i := range a.Eqs {
			v := a.Eqs[i].Fn(f)
			fx.eqVals = append(fx.eqVals, v)
			fx.eqKey = exec.AppendValueKey(fx.eqKey, v)
		}
		eq, ok := fx.eqIDs[string(fx.eqKey)]
		if !ok {
			eq = int32(len(fx.eqIDs))
			fx.eqIDs[string(fx.eqKey)] = eq
		}
		gk.eq = eq
		gi, ok := fx.groupOf[gk]
		if !ok {
			gi = int32(len(fx.groups))
			fx.groupOf[gk] = gi
			if len(fx.groups) < cap(fx.groups) {
				fx.groups = fx.groups[:gi+1] // reuse the slot's buffers
			} else {
				fx.groups = append(fx.groups, effectGroup{})
			}
			g := &fx.groups[gi]
			g.key, g.eqVals = gk, append(g.eqVals[:0], fx.eqVals...)
			g.xs, g.ys, g.vals = g.xs[:0], g.ys[:0], g.vals[:0]
		}
		g := &fx.groups[gi]
		g.xs, g.ys = append(g.xs, at(p.unit, 0)), append(g.ys, at(p.unit, 1))
		for _, set := range a.SetFn {
			g.vals = append(g.vals, set(f))
		}
	}

	// Target eligibility: e-only conjuncts, evaluated once per row. Pure
	// per row, so the scan shards across the worker pool.
	n := e.env.Len()
	if cap(fx.eligible) < n {
		fx.eligible = make([]bool, n)
	}
	eligible := fx.eligible[:n]
	runShards(e.shards(n), func(_, lo, hi int) {
		f := &expr.Frame{R: r}
		for i := lo; i < hi; i++ {
			row := e.env.Rows[i]
			f.Unit, f.Target = row, row
			ok := true
			for _, c := range a.EOnlyFn {
				if !c(f) {
					ok = false
					break
				}
			}
			eligible[i] = ok
		}
	})

	for gi := range fx.groups {
		g := &fx.groups[gi]
		gk := g.key
		// Targets matching this group's categorical requirements.
		targets := fx.targets[:0]
		for i, row := range e.env.Rows {
			if !eligible[i] {
				continue
			}
			match := true
			for j, eq := range a.Eqs {
				if eq.Neq {
					if row[eq.Col] == g.eqVals[j] {
						match = false
					}
				} else if row[eq.Col] != g.eqVals[j] {
					match = false
				}
			}
			if match {
				targets = append(targets, i)
			}
		}
		fx.targets = targets
		if len(targets) == 0 {
			continue
		}
		// Reflected probe window for target t:
		// performer at c affects t iff t ∈ [c+lo, c+hi] iff c ∈ [t−hi, t−lo].
		window := func(ti int) geom.Rect {
			row := e.env.Rows[ti]
			return reflectedRect(at(row, 0), at(row, 1), gk.offLoX, gk.offHiX, gk.offLoY, gk.offHiY)
		}
		// vals gathers SET column si over the group's centers.
		vals := func(si int) []float64 {
			fx.vals = fx.vals[:0]
			for j := range g.xs {
				fx.vals = append(fx.vals, g.vals[j*nSet+si])
			}
			return fx.vals
		}
		swept := false // the group's sweep order and probes exist

		for si, col := range a.SetCols {
			kind := e.prog.Schema.Attr(col).Kind
			switch kind {
			case table.Sum:
				fx.pts = fx.pts[:0]
				for j := range g.xs {
					fx.pts = append(fx.pts, rangetree.Point{X: g.xs[j], Y: g.ys[j]})
				}
				rt := &fx.rt
				e.Stats.IndexStats.AddResort(rt.Rebuild(fx.pts, 1, vals(si)))
				e.Stats.IndexStats.IndexBuilds++
				// Each target folds into its own accumulator row exactly
				// once here, and the tree is read-only, so the probe loop
				// shards across the worker pool; per-shard counters merge
				// after the barrier.
				tb := shardBounds(len(targets), e.workers)
				cnt := make([]struct{ probes, steps, applied int }, len(tb))
				runShards(tb, func(s, lo, hi int) {
					out := []float64{0}
					for _, ti := range targets[lo:hi] {
						out[0] = 0
						cnt[s].steps += rt.Aggregate(window(ti), out)
						cnt[s].probes++
						if out[0] != 0 {
							acc.fold(ti, col, out[0])
							cnt[s].applied++
						}
					}
				})
				for s := range tb {
					e.Stats.IndexStats.TreeProbes += cnt[s].probes
					e.Stats.IndexStats.BoundSteps += cnt[s].steps
					e.Stats.EffectsApplied += cnt[s].applied
					if s < len(e.Stats.EffectsByWorker) {
						e.Stats.EffectsByWorker[s] += cnt[s].applied
					}
				}
			default: // Max or Min: one sweep over the group's centers
				op := segtree.Max
				if kind == table.Min {
					op = segtree.Min
				}
				if !swept {
					// Centers and probes are the same for every SET column.
					swept = true
					fx.sites = fx.sites[:0]
					for j := range g.xs {
						fx.sites = append(fx.sites, sweepline.Site{X: g.xs[j], Y: g.ys[j], Key: int64(j)})
					}
					e.Stats.IndexStats.AddResort(fx.order.Rebuild(fx.sites))
					fx.probes = fx.probes[:0]
					for _, ti := range targets {
						rect := window(ti)
						cx, rx := sweepline.CenterHalf(rect.MinX, rect.MaxX)
						cy, _ := sweepline.CenterHalf(rect.MinY, rect.MaxY)
						fx.probes = append(fx.probes, sweepline.Probe{X: cx, Y: cy, RX: rx, Exclude: sweepline.NoExclude})
					}
				}
				// The reflected y-window height is constant within a group.
				rect0 := reflectedRect(0, 0, gk.offLoX, gk.offHiX, gk.offLoY, gk.offHiY)
				_, ry := sweepline.CenterHalf(rect0.MinY, rect0.MaxY)
				res := fx.sweeper.Sweep(&fx.order, vals(si), fx.probes, ry, op)
				e.Stats.IndexStats.Sweeps++
				for j, rres := range res {
					if rres.Found {
						acc.fold(targets[j], col, rres.Value)
						e.countEffect(0)
					}
				}
			}
		}
	}
}

// reflectedRect is the probe window of a target at (tx, ty): a performer
// centered at c affects the target iff the target lies in [c+lo, c+hi] on
// each axis, i.e. iff c lies in [t−hi, t−lo].
func reflectedRect(tx, ty, loX, hiX, loY, hiY float64) geom.Rect {
	return geom.Rect{MinX: tx - hiX, MinY: ty - hiY, MaxX: tx - loX, MaxY: ty - loY}
}
