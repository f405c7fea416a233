// Incremental per-tick index maintenance. The paper rebuilds every index
// from scratch each tick ("we discard the index and build a new one from
// scratch"); between consecutive ticks, though, only the units that moved,
// fought, or died actually change the attributes the indexes key on — the
// classic query-answering-under-updates setting (Berkholz, Keppeler &
// Schweikardt). MaintainFrom patches the previous tick's structures from a
// per-tick Delta instead of rebuilding them.
//
// Exactness argument. Every value baked into an index at build time —
// partition keys, e-only filter outcomes, range-tree sort keys and payload
// columns, kD-tree points, global extrema — is a pure function of the
// owning row's e-columns (the analyzer rejects Random in all of them, and
// SGL has no other source of tick-dependence). Therefore:
//
//   - a row none of whose relevant columns changed contributes
//     bit-identical index content, so a partition with no relevant dirty
//     member is reused as-is;
//   - a partition whose members only changed payload columns keeps its
//     sort order; recomputing the prefix aggregates in place (the same
//     left-to-right association Build uses) reproduces a fresh build bit
//     for bit;
//   - any other change rebuilds just that partition with the exact code
//     the from-scratch path runs, over a membership list that provably
//     equals the from-scratch one (membership is a pure row function, and
//     partition iteration order — ascending first row — equals the scan's
//     first-appearance order).
//
// The result: a maintained provider answers every probe bit-identically
// to a freshly built one, which TestIncrementalMatchesRebuild proves over
// the whole script zoo and the battle simulation at several worker counts.
// The same classification of the delta tells which of the previous tick's
// answers still hold (Carries), so the executor need not probe for them.
package exec

import (
	"cmp"
	"slices"

	"github.com/epicscale/sgl/internal/sgl/ast"
)

// Delta describes which environment rows changed between the snapshot the
// previous provider was built on and the current environment.
type Delta struct {
	// Dirty holds the changed row indexes in ascending order.
	Dirty []int
	// Masks is parallel to Dirty: bit c is set iff column c's value
	// changed (bit-level compare; columns ≥ 63 alias into bit 63).
	Masks []uint64
}

// Frac returns the dirty-row fraction over n rows.
func (d Delta) Frac(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(len(d.Dirty)) / float64(n)
}

// MaintainFrom patches the previous tick's index structures to reflect
// the current environment instead of rebuilding them, membership group by
// membership group. Churn is judged against threshold × rows, counting
// the dirty rows whose changed columns intersect what is judged: a group
// whose membership columns churn past it is left to rescan and rebuild
// from scratch; otherwise its partitions are maintained, and so is each
// structure built over them, unless that structure's own columns churn
// past it too — then it is dropped and rebuilt whole on its next use.
// Stats.MaintainFallbacks counts the member definitions left reading a
// rebuilt structure. A maintained structure is rebuilt or payload-patched
// only in the partitions a relevant dirty row touches, and reused in the
// rest.
//
// MaintainFrom takes ownership of prev: maintained group indexes move
// into p and are mutated in place, so prev must not be probed afterwards.
// It must run before Freeze/Fork, on the tick's single goroutine. The
// receiver must wrap the same environment table (same row order and keys)
// and analyzer as prev; if the populations disagree, MaintainFrom is a
// no-op and everything rebuilds lazily. It returns whether any group was
// maintained.
func (p *Indexed) MaintainFrom(prev *Indexed, d Delta, threshold float64) bool {
	if prev == nil || prev.an != p.an || prev.env.Len() != p.env.Len() {
		return false
	}
	n := p.env.Len()
	p.inherit(prev)
	ch := &p.changed
	ch.group = sized(ch.group, len(p.an.groups))
	for ord := range ch.group {
		ch.group[ord] = allCols // until maintained below
	}
	ch.row = sized(ch.row, n)
	clear(ch.row)
	for j, r := range d.Dirty {
		ch.row[r] = depMask(d.Masks[j])
	}
	ch.ok = true
	churned := func(m depMask) bool { return float64(relevantDirty(d, m)) > threshold*float64(n) }
	maintained := false
	for ord, idx := range prev.groups {
		if idx == nil || len(idx.rowPart) != n {
			continue
		}
		g := p.an.groups[ord]
		if churned(g.deps) {
			p.Stats.MaintainFallbacks += len(g.needs)
			continue
		}
		deps := g.slotDeps()
		var dropped slotMask
		for s, d := range deps[:g.slots] {
			if idx.built.has(s) && churned(g.deps|d.shape|d.vals) {
				dropped |= slotBit(s)
			}
		}
		idx.built &^= dropped
		for _, need := range g.needs {
			if need&dropped != 0 {
				p.Stats.MaintainFallbacks++
			}
		}
		ch.group[ord] = p.maintainGroup(g, idx, d, &deps)
		p.groups[ord] = idx
		maintained = true
	}
	// Keys are constant and rows never reorder, so the key lookup carries
	// over verbatim (normally the engine seeds it anyway).
	if p.keyIndex == nil {
		p.keyIndex = prev.keyIndex
	}
	return maintained
}

// changes is what MaintainFrom learned of how the environment moved since
// the previous provider's: per membership group, the columns changed on
// any row that was a member when the tick started — every column where
// the membership itself moved (a partition relabeled or was born), the
// group fell back to a rebuild, or it was not built last tick — and per
// environment row, its changed columns. ok is false on a provider
// MaintainFrom did not fill. Views share it read-only; the storage passes
// from provider to provider like the indexes'.
type changes struct {
	ok    bool
	group []depMask
	row   []depMask
}

// allCols is the mask of every column.
const allCols = ^depMask(0)

// Carries reports whether an answer of def computed for environment row
// row against the previous provider — the one MaintainFrom consumed, the
// answer held in dst — stands for this one, given the same arguments. It
// does when def is indexable and draws no Random, no column it reads off
// the probing unit changed on row, and either
//
//   - no column its folded rows are read at changed on any member of its
//     group: an indexable answer is a function of exactly those, the
//     arguments and the game constants (which no maintained tick
//     retunes), so dst stands as it is (Stats.CarriedAnswers); or
//   - def's outputs are all nearest ones and the previous winner's
//     separation certificate holds (certify): dst is rewritten with the
//     winner's current outputs, bit-identical to a fresh search
//     (Stats.CertifiedAnswers).
//
// The caller takes dst instead of probing when it returns true.
func (p *Indexed) Carries(dst []float64, def *ast.AggDef, row int) bool {
	ch := &p.changed
	if !ch.ok {
		return false
	}
	a := p.an.Agg(def)
	if !a.Indexable || a.reads.random || ch.row[row]&a.reads.u != 0 {
		return false
	}
	if ch.group[a.group.ord]&a.reads.e == 0 {
		p.Stats.CarriedAnswers++
		return true
	}
	if a.cert >= 0 && a.group.kd.certify(p, dst, a, row) {
		p.Stats.CertifiedAnswers++
		return true
	}
	return false
}

// relevantDirty counts the dirty rows whose changed columns intersect m.
func relevantDirty(d Delta, m depMask) int {
	n := 0
	for _, mask := range d.Masks {
		if depMask(mask)&m != 0 {
			n++
		}
	}
	return n
}

// partFate accumulates what one partition needs after classifying every
// relevant dirty row.
type partFate struct {
	relabel bool     // membership changed: rebuild everything from new rows
	rebuild slotMask // a structure's shape column changed: rebuild it
	repatch slotMask // only payload columns changed: recompute its sums in place
}

// arrival is a dirty row whose membership was re-evaluated and that now
// belongs to the partition with ordinal part.
type arrival struct {
	part int32
	row  int
}

// classifyDirty walks the delta once for a group, assigning a fate to
// every touched partition (p.fates, by partition ordinal) and collecting
// the dirty rows that now belong to each (p.arrivals, by partition, then
// ascending row, since d.Dirty is ascending). A row whose membership was
// re-evaluated departs its old partition and arrives wherever it belongs
// now, possibly the same one. A key the group has no partition for yet
// founds one, empty and relabeled, after the existing ones in idx.list.
// It returns the group's entry of changes.group. Its working memory is
// the provider's scratch: a steady tick allocates nothing here.
func (p *Indexed) classifyDirty(g *membership, idx *groupIndex, d Delta, deps *[maxSlots]slotDep) (changed depMask) {
	p.fates = slices.Grow(p.fates[:0], len(idx.list))[:len(idx.list)]
	clear(p.fates)
	p.arrivals = p.arrivals[:0]
	for j, r := range d.Dirty {
		mask := depMask(d.Masks[j])
		old := idx.rowPart[r]
		if old >= 0 {
			changed |= mask
		}
		if mask&g.deps != 0 {
			// Membership may have changed: pull the row out of its old
			// partition and re-insert it where it belongs now.
			if old >= 0 {
				p.fates[old].relabel = true
				changed = allCols
			}
			row := p.env.Rows[r]
			if p.passesEOnly(g.eonly, row) {
				key := p.partitionKey(row, g.cols)
				pt := idx.parts[string(key)]
				if pt == nil {
					pt = &part{key: string(key), ord: int32(len(idx.list))}
					idx.parts[pt.key] = pt
					idx.list = append(idx.list, pt)
					p.fates = append(p.fates, partFate{})
				}
				p.fates[pt.ord].relabel = true
				p.arrivals = append(p.arrivals, arrival{pt.ord, r})
				changed = allCols
			}
			continue
		}
		if old < 0 {
			continue // still filtered out; nothing indexed depends on it
		}
		var rebuild, repatch slotMask
		for s, dep := range deps[:g.slots] {
			if !idx.built.has(s) {
				continue
			}
			if mask&dep.shape != 0 {
				rebuild |= slotBit(s)
			} else if mask&dep.vals != 0 {
				repatch |= slotBit(s)
			}
		}
		f := &p.fates[old]
		f.rebuild |= rebuild
		f.repatch |= repatch
	}
	slices.SortStableFunc(p.arrivals, func(a, b arrival) int { return cmp.Compare(a.part, b.part) })
	return changed
}

// mergeMembership rebuilds one relabeled partition's row list in place:
// the old members that did not depart — rows whose membership columns
// did not change (moved) — merged with the arrivals, ascending, which is
// exactly the membership a from-scratch row scan would produce.
func mergeMembership(rows []int, arrivals []arrival, moved []depMask, deps depMask) []int {
	kept := rows[:0]
	for _, r := range rows {
		if moved[r]&deps == 0 {
			kept = append(kept, r)
		}
	}
	// Merge from the back, so no kept row is overwritten before it moves.
	i, j := len(kept)-1, len(arrivals)-1
	rows = slices.Grow(kept, len(arrivals))[:len(kept)+len(arrivals)]
	for k := len(rows) - 1; j >= 0; k-- {
		if i >= 0 && rows[i] > arrivals[j].row {
			rows[k] = rows[i]
			i--
		} else {
			rows[k] = arrivals[j].row
			j--
		}
	}
	return rows
}

// maintainGroup brings a group index built over the previous tick's rows
// up to date in place: the same structures built, each now a function of
// the current rows. deps are the group's slotDeps. It returns the group's
// changed columns (changes).
func (p *Indexed) maintainGroup(g *membership, idx *groupIndex, d Delta, deps *[maxSlots]slotDep) depMask {
	changed := p.classifyDirty(g, idx, d, deps)
	arrivals, live := p.arrivals, idx.list[:0]
	// A kD-tree kept is a partition that did not move; one rebuilt here
	// records how its points moved (trackMotion).
	kd := idx.built.has(g.kd.slot)
	p.tracking = true
	for ord, pt := range idx.list {
		if kd {
			pt.motion.still()
		}
		n := 0
		for n < len(arrivals) && arrivals[n].part == int32(ord) {
			n++
		}
		mine := arrivals[:n]
		arrivals = arrivals[n:]
		switch f := p.fates[ord]; {
		case f == partFate{}:
			// No relevant dirty member: every structure is a pure function
			// of unchanged rows, so the whole partition carries over.
			p.refresh(g, pt, slotOps{keep: idx.built})
		case f.relabel:
			pt.rows = mergeMembership(pt.rows, mine, p.changed.row, g.deps)
			if len(pt.rows) == 0 {
				delete(idx.parts, pt.key) // partition vanished; drop it like the scan would
				continue
			}
			p.refresh(g, pt, slotOps{build: idx.built})
		default:
			// Membership intact: refresh only the invalidated structures.
			rebuild := f.rebuild & idx.built
			repatch := f.repatch & idx.built &^ rebuild
			p.refresh(g, pt, slotOps{build: rebuild, patch: repatch, keep: idx.built &^ (rebuild | repatch)})
		}
		live = append(live, pt)
	}
	p.tracking = false
	clear(idx.list[len(live):])
	idx.list = live
	// Partition order is first-appearance order in a row scan, which is
	// ascending first member row.
	slices.SortFunc(idx.list, func(a, b *part) int { return cmp.Compare(a.rows[0], b.rows[0]) })
	idx.finish(p.env.Len(), true)
	return changed
}
