// Incremental per-tick index maintenance (the engine half; the structure
// half lives in exec.MaintainFrom). Rather than instrumenting every
// mutation site — effect application, movement, resurrection — the engine
// diffs the rows at tick end against those of the read view the previous
// tick published (query.go): O(n·width) bit-compares, trivial next to
// index construction, and immune to new mutation paths silently
// bypassing delta capture. The view is the one copy of the previous
// state the engine keeps; the delta is what separates it from the next.
// The diff also yields a per-row changed-column mask, which is what lets
// MaintainFrom tell a unit that merely cooled down apart from one that
// moved. The same delta names the rows the next read view copies
// (publishView) and, through
// MaintainFrom, decides which of the previous tick's aggregate answers
// the shard executors carry over instead of probing again
// (exec.Indexed.Carries).
//
// Timeline: tick T's decision reads the rows of view T — the commands
// stamped T were applied at the commit of the tick before it — so the
// provider built at tick T holds exactly the rows view T published. The
// delta captured at the end of tick T spans view T to the state T
// commits, the commands stamped T+1 included (they are applied just
// before the capture), and the provider for T+1 is obtained by patching
// tick T's provider with it. The first tick after New or Open rebuilds
// (no prior provider exists); maintenance engages from the second. A
// population change or a tune costs one rebuild: the tick after the
// commit that applied it.
package engine

import (
	"math"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/rng"
)

// newIndexedProvider builds the tick's indexed provider out of the
// previous tick's: patched from its structures when a valid delta exists
// and no tune came between — MaintainFrom then decides per structure
// whether patching beats rebuilding — and in every case rebuilt into its
// storage (exec.Indexed.Recycle) — the retired provider was this
// engine's alone, nothing can still be reading it. A single
// decision shard probes the result lazily; several shards freeze it
// first (which only builds what maintenance did not install).
func (e *Engine) newIndexedProvider(r rng.TickSource) *exec.Indexed {
	prov := exec.NewIndexed(e.an, e.env, r)
	prov.SeedKeyIndex(e.keyIndex())
	if prev := e.prevProv; prev != nil {
		thr := DefaultIncrementalThreshold
		if e.opts.threshold != 0 {
			thr = e.opts.threshold // a test's
		}
		if e.deltaOK && !e.tuned && thr >= 0 && prov.MaintainFrom(prev, e.delta, thr) {
			e.Stats.MaintainTicks++
			e.Stats.DirtyRows += len(e.delta.Dirty)
		}
		prov.Recycle(prev)
		e.prevProv = nil
	}
	e.tickProv, e.tuned = prov, false
	return prov
}

// captureIncremental diffs the environment against the rows of the
// previous read view at tick end, producing the Delta the next tick's
// provider is maintained with. Values are compared bit-for-bit
// (Float64bits): the index build pipeline is a pure function of row
// bits, so bit equality is exactly the "nothing this index consumed
// changed" predicate.
func (e *Engine) captureIncremental() {
	// The tick's provider retires whatever else happens here: the next
	// tick maintains its indexes from it when it can, and rebuilds into
	// its storage either way.
	e.prevProv, e.tickProv = e.tickProv, nil
	if e.popChanged {
		// Rows shifted under the view: nothing to diff row for row.
		e.popChanged, e.deltaOK = false, false
		return
	}
	prev := e.view.Load().env.Rows
	// The delta's storage is reused tick to tick: its previous contents
	// were consumed by this tick's maintenance and nothing else.
	// It is sized for every row up front, so no tick grows it.
	n := len(e.env.Rows)
	if cap(e.delta.Dirty) < n {
		e.delta = exec.Delta{Dirty: make([]int, 0, n), Masks: make([]uint64, 0, n)}
	}
	dirty, masks := e.delta.Dirty[:0], e.delta.Masks[:0]
	for i, row := range e.env.Rows {
		base := prev[i]
		var m uint64
		for c, v := range row {
			if math.Float64bits(v) != math.Float64bits(base[c]) {
				m |= exec.ColBit(c)
			}
		}
		if m != 0 {
			dirty = append(dirty, i)
			masks = append(masks, m)
		}
	}
	e.delta = exec.Delta{Dirty: dirty, Masks: masks}
	e.deltaOK = true
}
