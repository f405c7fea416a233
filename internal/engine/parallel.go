// Sharded tick execution (the paper's Section 4–5 insight made
// operational): within a tick every unit script only *reads* the frozen
// environment snapshot and *emits* effect rows that are later combined
// with commutative/associative fold operators, so the per-tick effect
// query is embarrassingly parallel. The decision phase (decision.go)
// shards the environment's unit rows into Workers contiguous ranges —
// one range at Workers 1 — runs the effect query per shard against the
// shared read-only snapshot, and merges the per-shard effect buffers at a
// single barrier; the post-processing and movement planning shard the
// same way. This file holds the shard helpers.
//
// Determinism contract. Floating-point folds are not associative, so
// every shard count must fold effects in the same (plan Apply node,
// performer row, target visit) order to be bit-identical:
//
//   - shards are contiguous row ranges, so concatenating shard buffers in
//     shard order restores global performer-row order;
//   - each shard buffers effect rows per Apply node, and the barrier folds
//     node-major, shard-minor — the one-shard association exactly;
//   - randomness is counter-based: rng.TickSource hashes (seed, tick,
//     unit key, i), so a script draws the same values no matter which
//     worker evaluates it, and sequential draws (respawn placement) come
//     from per-unit substreams derived from the tick seed.
//
// The result: for any program, any tick count, and any Workers value, the
// environment table is byte-identical to the one-shard run. The engine
// tests prove this across the whole script zoo.
package engine

import "sync"

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

// shards returns the engine's shard boundaries for n items. Every phase
// of a tick shards the same n rows, so the last boundaries are kept and
// recomputed only when n changes.
func (e *Engine) shards(n int) [][2]int {
	if len(e.bounds) == 0 || e.bounds[len(e.bounds)-1][1] != n {
		e.bounds = shardBounds(n, e.workers)
	}
	return e.bounds
}

// runShards runs fn(shard, lo, hi) for every shard, concurrently when
// there is more than one, and waits for all of them. fn must only write
// state owned by its shard (per-shard output slots or disjoint row
// ranges). A panic in a shard is re-raised on the caller once every
// shard has returned — the lowest panicking shard's value, so the caller
// sees the same panic whatever the scheduling.
func runShards(bounds [][2]int, fn func(s, lo, hi int)) {
	if len(bounds) == 1 {
		fn(0, bounds[0][0], bounds[0][1])
		return
	}
	panics := make([]any, len(bounds))
	var wg sync.WaitGroup
	for s, b := range bounds {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			defer func() { panics[s] = recover() }()
			fn(s, lo, hi)
		}(s, b[0], b[1])
	}
	wg.Wait()
	for _, v := range panics {
		if v != nil {
			panic(v)
		}
	}
}

// runShardsErr is runShards for fallible shard work: it collects one
// error slot per shard and returns the lowest-shard failure, so the
// reported error is deterministic regardless of scheduling.
func runShardsErr(bounds [][2]int, fn func(s, lo, hi int) error) error {
	if len(bounds) == 1 {
		return fn(0, bounds[0][0], bounds[0][1])
	}
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
