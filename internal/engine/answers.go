// Maintained query answers: the engine half of answering observation
// queries under updates. Where ReadView.Query evaluates afresh on every
// committed tick, QueryMaintained keeps the *result* of a specific
// (query, probe, args) evaluation cached across ticks and uses
// the tick's exec.Delta to decide, per answer, the cheapest way to stay
// current:
//
//   - untouched: no changed column intersects what the answer reads —
//     the cached values are returned as-is (Stats.AnswerHits);
//   - patched: all outputs are divisible and the relevant churn is at or
//     below Options.IncrementalThreshold — exec.Answer re-evaluates just
//     the dirty rows and refolds (Stats.AnswerPatches), bit-identical to
//     a fresh scan;
//   - rederived: everything else falls back to the current read view's
//     one-shot indexed evaluation (query.go), or to a from-scratch state
//     rebuild for divisible answers below the threshold
//     (Stats.AnswerRederives).
//
// The cache hangs off the per-Query cache in query.go: an answer lives
// inside its query's cache entry, is maintained by maintainAnswers at
// the end of every Tick (the delta is fresh then), and dies with the
// entry when evictIdleQueries drops it. Unlike a view's reads,
// QueryMaintained reads the live environment and the tick's delta, and it
// resolves its probe on the current read view: it may be called from
// any number of goroutines but never concurrently with Tick — the
// Session facade's reader lock enforces that, and it is also what makes
// the probe resolution and the provider fallback sound: while the lock is
// held the current read view is the live tick.
//
// The per-answer verdict counters (AnswerHits/Patches/Rederives) are
// deliberately not checkpoint-serialized: like IndexStats, they depend
// on which spectators were watching, not on the world.
package engine

import (
	"encoding/binary"
	"math"

	"github.com/epicscale/sgl/internal/exec"
)

// answerKey identifies one maintained evaluation by the bits of its
// probe and arguments: a NaN position or argument is then a key like any
// other — found again by the next read, and removable by eviction.
type answerKey struct {
	kind probeKind
	x, y uint64 // Float64bits of an At probe's position
	unit int64
	args string
}

func (p Probe) answerKey(args []float64) answerKey {
	k := answerKey{kind: p.kind, x: math.Float64bits(p.x), y: math.Float64bits(p.y), unit: p.key}
	if len(args) > 0 {
		buf := make([]byte, 8*len(args))
		for i, v := range args {
			binary.BigEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		k.args = string(buf)
	}
	return k
}

// answerEntry is one maintained answer. Guarded by the owning cache
// entry's amu.
type answerEntry struct {
	// ans is the patchable per-row state (divisible plans only); nil
	// when the answer was derived through the provider path or the state
	// was invalidated.
	ans *exec.Answer
	// vals is the current answer; nil until first evaluated.
	vals []float64
	// stale marks vals as needing re-derivation at the next read.
	stale bool
	// viaProvider selects the provider path for that re-derivation
	// (non-divisible outputs, or churn above the threshold).
	viaProvider bool
	// Recency for eviction, stamped from the query cache's gen/seq.
	lastGen uint64
	lastSeq uint64
}

// maxAnswersPerQuery bounds one query's probe fan-out: each answer holds
// O(population) state, so a spectator sweeping probe positions must
// recycle slots instead of growing one per position ever probed.
const maxAnswersPerQuery = 32

// QueryMaintained is ReadView.Query backed by the maintained-answer
// cache: same semantics and probe rules, but repeated evaluations across
// ticks reuse the cached answer whenever the tick's delta provably could
// not move it, and patch it in place when the relevant churn is small. A
// Unit probe's row is copied at evaluation time; maintainAnswers
// invalidates the answer when the unit's own read columns change.
func (e *Engine) QueryMaintained(q *Query, p Probe, args ...float64) ([]float64, error) {
	unit, err := q.probeRow(p, e.ReadView(), args)
	if err != nil {
		return nil, err
	}
	return e.maintainedRow(q, p.answerKey(args), unit, args)
}

// MaintainedPlan returns the answer-maintenance plan maintained
// evaluations of q run with, building it exactly as maintainedRow would.
// Exposed for explain tooling and the lint/runtime consistency tests: the
// plan's Divisible() is the patch-vs-rederive decision the maintainer
// makes every dirty tick.
func (e *Engine) MaintainedPlan(q *Query) *exec.AnswerPlan {
	ent, _, _ := e.queryEntry(q)
	ent.amu.Lock()
	defer ent.amu.Unlock()
	if ent.plan == nil {
		ent.plan = exec.NewAnswerPlan(q.prog, q.def)
	}
	return ent.plan
}

// maintainedRow returns the cached answer for (q, key), deriving it if
// absent or stale. Lock order: queryEntry's qmu section completes before
// amu is taken; the provider fallback takes qmu, ent.mu and the view's
// mu (one at a time) under amu, which nothing inverts.
func (e *Engine) maintainedRow(q *Query, key answerKey, unit, args []float64) ([]float64, error) {
	ent, gen, seq := e.queryEntry(q)
	ent.amu.Lock()
	defer ent.amu.Unlock()
	if ent.plan == nil {
		ent.plan = exec.NewAnswerPlan(q.prog, q.def)
	}
	if ent.answers == nil {
		ent.answers = map[answerKey]*answerEntry{}
	}
	a := ent.answers[key]
	if a == nil {
		a = &answerEntry{}
		ent.answers[key] = a
		for len(ent.answers) > maxAnswersPerQuery {
			evictLRU(ent.answers, key, func(a *answerEntry) uint64 { return a.lastSeq })
		}
	}
	a.lastGen, a.lastSeq = gen, seq
	if a.vals != nil && !a.stale {
		return append([]float64(nil), a.vals...), nil
	}
	if ent.plan.Divisible() && !a.viaProvider {
		ans, err := exec.NewAnswer(ent.plan, e.env, unit, args, e.src.Tick(e.tick))
		if err != nil {
			return nil, err
		}
		a.ans = ans
		a.vals = ans.Values()
		a.stale = false
		return append([]float64(nil), a.vals...), nil
	}
	vals := e.ReadView().evalIndexed(q, unit, args)
	a.ans = nil
	a.vals = vals
	a.stale = false
	// The provider detour is one-shot: a later quiet tick may rebuild
	// patchable state for divisible plans.
	a.viaProvider = !ent.plan.Divisible()
	return append([]float64(nil), vals...), nil
}

// maintainAnswers classifies every cached answer against the tick's
// delta. Called at the end of Tick, after captureIncremental: the delta
// spans exactly the tick that just ran. Maintained reads hold the session
// reader lock and so never overlap a Tick; view readers do, but touch
// only qmu-guarded recency stamps, so the Stats counters are safe to bump.
func (e *Engine) maintainAnswers() {
	type qe struct {
		q   *Query
		ent *queryCacheEntry
	}
	e.qmu.Lock()
	gen := e.queries.gen
	ents := make([]qe, 0, len(e.queries.cache))
	//sgl:unordered snapshot into a slice; per-entry maintenance below is independent of visit order
	for q, ent := range e.queries.cache {
		ents = append(ents, qe{q, ent})
	}
	e.qmu.Unlock()
	if len(ents) == 0 {
		return
	}
	n := e.env.Len()
	thr := e.incThreshold()
	r := e.src.Tick(e.tick)
	kc := e.prog.Schema.KeyCol()
	// Keys of rows the tick dirtied, for probe-unit invalidation; built
	// lazily since most answers are world/positional.
	var dirtyKeys map[int64]uint64
	for _, x := range ents {
		x.ent.amu.Lock()
		//sgl:unordered per-answer maintenance touches only its own entry; stats counters are sums
		for key, a := range x.ent.answers {
			if gen-a.lastGen > queryEvictAfter {
				delete(x.ent.answers, key)
				continue
			}
			if a.vals == nil || a.stale {
				continue // nothing current to maintain; next read derives
			}
			if !e.deltaOK {
				// No usable delta (first tick, population change): the
				// cached values and per-row state are both suspect.
				a.stale, a.ans = true, nil
				a.viaProvider = !x.ent.plan.Divisible()
				e.Stats.AnswerRederives++
				continue
			}
			if key.kind == probeUnit {
				if dirtyKeys == nil {
					dirtyKeys = make(map[int64]uint64, len(e.delta.Dirty))
					for j, i := range e.delta.Dirty {
						dirtyKeys[int64(e.env.Rows[i][kc])] = e.delta.Masks[j]
					}
				}
				if m, ok := dirtyKeys[key.unit]; ok && m&x.q.unitColMask() != 0 {
					// The probe row itself changed in a column the query
					// reads through u: the frozen copy inside the state
					// is wrong, not just the fold.
					a.stale, a.ans = true, nil
					a.viaProvider = !x.ent.plan.Divisible()
					e.Stats.AnswerRederives++
					continue
				}
			}
			if !x.ent.plan.Touched(e.delta) {
				e.Stats.AnswerHits++
				continue
			}
			rel := x.ent.plan.RelevantDirty(e.delta)
			if a.ans != nil && float64(rel) <= thr*float64(n) {
				if err := a.ans.Patch(e.env, e.delta, r); err == nil {
					a.vals = a.ans.Values()
					a.stale = false
					e.Stats.AnswerPatches++
					continue
				}
				a.ans = nil
			}
			a.stale = true
			a.viaProvider = !x.ent.plan.Divisible() || float64(rel) > thr*float64(n)
			if a.viaProvider {
				a.ans = nil
			}
			e.Stats.AnswerRederives++
		}
		x.ent.amu.Unlock()
	}
}

// hasMaintainedAnswers reports whether any cached query carries live
// maintained answers — the signal that delta capture must run even when
// index maintenance is off.
func (e *Engine) hasMaintainedAnswers() bool {
	e.qmu.Lock()
	ents := make([]*queryCacheEntry, 0, len(e.queries.cache))
	//sgl:unordered existence check (any-live fold); order cannot reach the boolean
	for _, ent := range e.queries.cache {
		ents = append(ents, ent)
	}
	e.qmu.Unlock()
	for _, ent := range ents {
		ent.amu.Lock()
		live := len(ent.answers) > 0
		ent.amu.Unlock()
		if live {
			return true
		}
	}
	return false
}

// unitColMask is unitCols as a Delta column mask.
func (q *Query) unitColMask() uint64 {
	var m uint64
	for _, c := range q.unitCols {
		m |= exec.ColBit(c)
	}
	return m
}
