// Incremental per-tick index maintenance (the engine half; the structure
// half lives in exec.MaintainFrom). Rather than instrumenting every
// mutation site — effect application, movement, resurrection — the engine
// keeps a flat snapshot of the previous tick's rows and diffs it at tick
// end: O(n·width) bit-compares, trivial next to index construction, and
// immune to new mutation paths silently bypassing delta capture. The diff
// also yields a per-row changed-column mask, which is what lets
// MaintainFrom tell a unit that merely cooled down apart from one that
// moved. Command edits, which the snapshot sync hides from the diff,
// enter with the columns they wrote (applyCommands). The same delta
// drives answer maintenance (answers.go), names the rows the next read
// view copies (publishView) and, through MaintainFrom, decides which of
// the previous tick's aggregate answers the shard executors carry over
// instead of probing again (exec.Indexed.Carries).
//
// Timeline: the provider built at tick T reflects the environment after
// tick T−1 (effects apply post-decision). The delta captured at the end
// of tick T spans exactly that state to the state after T, so the
// provider for tick T+1 is obtained by patching tick T's provider with
// tick T's delta. The first two indexed ticks rebuild (no prior provider
// with a matching snapshot exists yet); maintenance engages from the
// third.
package engine

import (
	"math"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/rng"
)

// incThreshold resolves Options.IncrementalThreshold.
func (e *Engine) incThreshold() float64 {
	t := e.opts.IncrementalThreshold
	switch {
	case t == 0:
		return DefaultIncrementalThreshold
	case t < 0:
		return 0
	default:
		return t
	}
}

// newIndexedProvider builds the tick's indexed provider out of the
// previous tick's: patched from its structures when incremental
// maintenance is on and a valid delta exists, and in every case rebuilt
// into its storage (exec.Indexed.Recycle) — the retired provider was
// this engine's alone, nothing can still be reading it. A single
// decision shard probes the result lazily; several shards freeze it
// first (which only builds what maintenance did not install).
func (e *Engine) newIndexedProvider(r rng.TickSource, keyIdx map[int64]int) *exec.Indexed {
	prov := exec.NewIndexed(e.an, e.env, r)
	prov.SeedKeyIndex(keyIdx)
	if prev := e.prevProv; prev != nil {
		if e.opts.Incremental && e.deltaOK && prov.MaintainFrom(prev, e.delta, e.incThreshold()) {
			e.Stats.MaintainTicks++
			e.Stats.DirtyRows += len(e.delta.Dirty)
		}
		prov.Recycle(prev)
		e.prevProv = nil
	}
	e.tickProv = prov
	return prov
}

// captureIncremental diffs the environment against the previous tick's
// snapshot at tick end, producing the Delta the next tick's provider is
// maintained with. Values are compared bit-for-bit (Float64bits): the
// index build pipeline is a pure function of row bits, so bit equality is
// exactly the "nothing this index consumed changed" predicate.
func (e *Engine) captureIncremental() {
	// The tick's provider retires whatever else happens here: the next
	// tick maintains its indexes from it when it can, and rebuilds into
	// its storage either way.
	e.prevProv, e.tickProv = e.tickProv, nil

	// Rows OpSet commands edited this tick under a synced snapshot (see
	// applyCommands): the sync makes the diff below blind to those edits,
	// so they are added back to the fresh delta by hand. Consumed (and
	// cleared) every tick, whatever path returns.
	cmd := e.cmdDelta
	e.cmdDelta.Dirty, e.cmdDelta.Masks = cmd.Dirty[:0], cmd.Masks[:0]
	e.cmdSets = e.cmdSets[:0]

	// Index maintenance and answer maintenance (answers.go) share the
	// delta; capture runs when either consumer is live. When neither is,
	// the snapshot is dropped entirely: a baseline that skipped ticks
	// would under-report rows that changed and changed back, so capture
	// must restart from scratch when it re-engages.
	incIdx := e.opts.Incremental && e.opts.Mode == Indexed
	if !incIdx && !e.hasMaintainedAnswers() {
		e.incSnap = nil
		e.deltaOK = false
		return
	}
	n, w := e.env.Len(), e.prog.Schema.NumAttrs()
	if len(e.incSnap) != n*w {
		// First tick (or a population change): no usable baseline. Snapshot
		// now; the delta becomes valid at the end of the next tick.
		e.incSnap = make([]float64, n*w)
		for i, row := range e.env.Rows {
			copy(e.incSnap[i*w:(i+1)*w], row)
		}
		e.deltaOK = false
		return
	}
	// The delta's storage is reused tick to tick: its previous contents
	// were consumed by this tick's maintenance, answers and nothing else.
	dirty, masks := e.delta.Dirty[:0], e.delta.Masks[:0]
	for i, row := range e.env.Rows {
		base := e.incSnap[i*w : (i+1)*w]
		var m uint64
		for c, v := range row {
			if math.Float64bits(v) != math.Float64bits(base[c]) {
				m |= exec.ColBit(c)
			}
		}
		if m != 0 {
			dirty = append(dirty, i)
			masks = append(masks, m)
			copy(base, row)
		}
	}
	e.delta = exec.Delta{Dirty: dirty, Masks: masks}
	// Command-set rows enter with the columns their commands wrote,
	// whether or not the tick touched them again: the delta must span the
	// whole pre-command → post-tick window maintainAnswers classifies and
	// publishView copies over. A column changed over that window either
	// by a command (in its mask) or by the tick (in the diff against the
	// synced snapshot). Over-reporting is safe for every consumer (rows
	// re-derive from the live table); the synced snapshot is what keeps
	// next tick's baseline honest.
	e.delta.AddRows(cmd.Dirty, cmd.Masks)
	e.deltaOK = true
}
