// Parallel sharded tick execution (the paper's Section 4–5 insight made
// operational): within a tick every unit script only *reads* the frozen
// environment snapshot and *emits* effect rows that are later combined
// with commutative/associative fold operators, so the per-tick effect
// query is embarrassingly parallel. This file shards the environment's
// unit rows into Workers contiguous ranges, runs the effect query
// concurrently per shard against the shared read-only snapshot, and
// merges the per-shard effect buffers at a single barrier.
//
// Determinism contract. The serial engine folds effects in (plan Apply
// node, performer row, target visit) order; floating-point folds are not
// associative, so the parallel path must reproduce exactly that
// association to be bit-identical:
//
//   - shards are contiguous row ranges, so concatenating shard buffers in
//     shard order restores global performer-row order;
//   - each shard buffers effect rows per Apply node, and the barrier folds
//     node-major, shard-minor — the serial association exactly;
//   - randomness is counter-based: rng.TickSource hashes (seed, tick,
//     unit key, i), so a script draws the same values no matter which
//     worker evaluates it, and sequential draws (respawn placement) come
//     from per-unit substreams derived from the tick seed.
//
// The result: for any program, any tick count, and any Workers value, the
// environment table is byte-identical to the serial run. The engine tests
// prove this across the whole script zoo.
package engine

import (
	"sync"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
)

// shardBounds splits the half-open range [0, n) into at most p contiguous
// shards of near-equal size. The boundaries depend only on (n, p), never
// on scheduling, and concatenating the shards in index order yields
// [0, n) — the property the ordered merge relies on.
func shardBounds(n, p int) [][2]int {
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}
	if p < 1 {
		return [][2]int{{0, 0}}
	}
	bounds := make([][2]int, p)
	for s := 0; s < p; s++ {
		bounds[s] = [2]int{s * n / p, (s + 1) * n / p}
	}
	return bounds
}

// shards returns the engine's shard boundaries for n items.
func (e *Engine) shards(n int) [][2]int { return shardBounds(n, e.workers) }

// runShards runs fn(shard, lo, hi) for every shard, concurrently when
// there is more than one, and waits for all of them. fn must only write
// state owned by its shard (per-shard output slots or disjoint row
// ranges).
func runShards(bounds [][2]int, fn func(s, lo, hi int)) {
	if len(bounds) == 1 {
		fn(0, bounds[0][0], bounds[0][1])
		return
	}
	var wg sync.WaitGroup
	for s, b := range bounds {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, b[0], b[1])
	}
	wg.Wait()
}

// runShardsErr is runShards for fallible shard work: it collects one
// error slot per shard and returns the lowest-shard failure, so the
// reported error is deterministic regardless of scheduling.
func runShardsErr(bounds [][2]int, fn func(s, lo, hi int) error) error {
	errs := make([]error, len(bounds))
	runShards(bounds, func(s, lo, hi int) {
		errs[s] = fn(s, lo, hi)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decideParallel is the sharded decision + action stage.
func (e *Engine) decideParallel(r rng.TickSource, acc *accumulator, keyIdx map[int64]int) error {
	if e.opts.Mode == Naive {
		return e.decideNaiveParallel(r, acc, keyIdx)
	}
	return e.decideIndexedParallel(r, acc, keyIdx)
}

// decideNaiveParallel shards the unit-at-a-time interpreter: each worker
// runs its units' scripts against the full frozen snapshot (interp.Naive
// and interp.Evaluator are stateless) and buffers the emitted effect
// rows; the barrier folds the buffers in shard order, which is global
// unit order — the serial fold association exactly.
func (e *Engine) decideNaiveParallel(r rng.TickSource, acc *accumulator, keyIdx map[int64]int) error {
	bounds := e.shards(e.env.Len())
	effs := make([][][]float64, len(bounds))
	if err := runShardsErr(bounds, func(s, lo, hi int) error {
		prov := interp.NewNaive(e.prog, e.env, r)
		ev := interp.New(e.prog, e.env, prov, r)
		var buf [][]float64
		for _, unit := range e.env.View(lo, hi).Rows {
			if err := ev.RunUnit(unit, func(row []float64) {
				buf = append(buf, row)
			}); err != nil {
				return err
			}
		}
		effs[s] = buf
		return nil
	}); err != nil {
		return err
	}
	kc := e.prog.Schema.KeyCol()
	for s, buf := range effs {
		for _, row := range buf {
			if idx, ok := keyIdx[int64(row[kc])]; ok {
				acc.foldRow(idx, row)
				e.countEffect(s)
			}
		}
	}
	return nil
}

// shardDecision is one worker's output: effect rows and deferred area
// performers, both bucketed per Apply node so the merge can reproduce the
// serial node-major fold order.
type shardDecision struct {
	effects [][][]float64 // [apply node][emission order] effect row
	perf    [][]performer // [apply node][row order] deferred performers
	stats   exec.Stats
}

// decideIndexedParallel shards the compiled set-at-a-time plan. One
// master provider builds every per-tick index up front (FreezeParallel:
// the partition builds themselves spread over the workers); each worker
// then probes the frozen indexes through its own Fork and evaluates the
// plan restricted to its row range with a private Executor. Non-deferred
// effects are buffered per Apply node; deferrable area performers are
// collected per Apply node and applied after the barrier through the
// Section 5.4 effect index, concatenated in the exact order the serial
// walk would have discovered them.
func (e *Engine) decideIndexedParallel(r rng.TickSource, acc *accumulator, keyIdx map[int64]int) error {
	master := e.newIndexedProvider(r, keyIdx)
	master.FreezeParallel(e.workers)
	applies := e.applies
	bounds := e.shards(e.env.Len())
	outs := make([]shardDecision, len(bounds))

	if err := runShardsErr(bounds, func(s, lo, hi int) error {
		out := &outs[s]
		out.effects = make([][][]float64, len(applies))
		out.perf = make([][]performer, len(applies))
		prov := master.Fork()
		x, err := e.shardExecutor(s, prov, r, lo, hi)
		if err != nil {
			return err
		}
		var argBuf []float64
		for j, ap := range applies {
			// One visitor per Apply (see decideIndexed); effect rows are
			// buffered until the barrier, so each is its own allocation.
			var unit, args []float64
			buffer := func(tgt []float64) {
				out.effects[j] = append(out.effects[j], x.BuildEffectRow(nil, ap.Def, unit, args, tgt))
			}
			deferThis := e.deferApply[j]
			err := x.EachUnit(ap.In, func(row *algebra.Row) error {
				if deferThis {
					out.perf[j] = append(out.perf[j], performer{unit: row.Unit, args: x.ApplyArgs(nil, ap, row)})
					return nil
				}
				argBuf = x.ApplyArgs(argBuf[:0], ap, row)
				unit, args = row.Unit, argBuf
				prov.SelectTargets(ap.Def, unit, args, buffer)
				return nil
			})
			if err != nil {
				return err
			}
		}
		out.stats = prov.Stats
		return nil
	}); err != nil {
		return err
	}

	// Barrier merge: fold buffered effects Apply-node-major, shard-minor —
	// within a node, shard order is global performer-row order, so every
	// target's fold sequence matches the serial walk bit for bit.
	kc := e.prog.Schema.KeyCol()
	for j := range applies {
		for s := range outs {
			for _, eff := range outs[s].effects[j] {
				if idx, ok := keyIdx[int64(eff[kc])]; ok {
					acc.foldRow(idx, eff)
					e.countEffect(s)
				}
			}
		}
	}

	// Deferred area actions, in serial discovery order: a definition
	// enters the order at the first (node, row) that actually deferred a
	// performer, and its performers concatenate node-major, shard-minor.
	deferred := map[*ast.ActDef][]performer{}
	var deferredOrder []*ast.ActDef
	for j, ap := range applies {
		for s := range outs {
			ps := outs[s].perf[j]
			if len(ps) == 0 {
				continue
			}
			if _, seen := deferred[ap.Def]; !seen {
				deferredOrder = append(deferredOrder, ap.Def)
			}
			deferred[ap.Def] = append(deferred[ap.Def], ps...)
		}
	}
	for _, def := range deferredOrder {
		e.applyDeferredArea(def, deferred[def], r, acc)
	}

	e.Stats.IndexStats.Add(master.Stats)
	for s := range outs {
		e.Stats.IndexStats.Add(outs[s].stats)
	}
	return nil
}
