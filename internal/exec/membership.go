package exec

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
)

// Membership groups. The paper layers its indexes by partition ("6 range
// trees — one for each player/unit type combination"), and a partition is
// a property of the rows, not of the definition asking: every indexable
// definition whose e-only filter (by exact printed form, as a set of
// conjuncts) and partition columns agree selects the same rows into the
// same partitions. NewAnalyzer gathers such definitions — aggregates and
// area actions alike — into one membership group; a provider scans each
// group's rows once and keeps, per partition, one set of structures for
// the whole group, each laid out by its class (classes.go):
//
//   - per surface (a distinct pair of range-axis columns), one range tree
//     (treeClass) carrying the union of the payload columns its
//     definitions sum — the tree area actions report targets from, too —
//     and, when a MIN/MAX output sweeps the surface, one set of sweep
//     orderings (sweepClass);
//   - one kD-tree (kdClass), shared by every nearest-neighbour output;
//   - one row-order fold (foldClass) of the payload columns the axis-less
//     divisible outputs sum;
//   - one extremum per distinct (direction, argument) of the global
//     MIN/MAX outputs, all folded together (extClass).
//
// Each structure is a slot of the group: built the first time a probe
// needs it (all of them by Freeze), and maintained (MaintainFrom) and
// recycled (Recycle) with the group's partitions. Its class builds,
// patches and keeps it (refresh) and answers probes from it, or without
// it on a provider that never built it.
//
// Sharing changes no answer's bits. A range tree's shape — x-ranks,
// canonical nodes, (y, index) orders — is a function of its points alone,
// so a definition's rows in the union tree sit exactly where its own tree
// put them, and prefix sums are kept per column, left to right from zero:
// a column's chain in the union tree is the chain the narrower tree
// summed, since columns never mix. A tree with no axes would hold every
// point at (0, 0) — one order, index order; a root whose prefix at n is
// the sum in row order from zero; every probe rectangle unbounded, so
// every probe reads that root prefix. The fold stores exactly it, and a
// probe adds it to its running total as the tree's probe did.

// slotMask is a set of slots of one membership group, by slot index.
type slotMask uint64

// maxSlots bounds a group's slots to what a slotMask holds; a definition
// that would overflow its group founds a new one over the same membership.
// One definition adds at most defSlots: its surface's tree (or the fold),
// the surface's sweep orderings, the kD-tree and the extrema.
const (
	maxSlots = 64
	defSlots = 4
)

// slotBit is the mask of slot s; a negative s (no slot) is the empty mask.
func slotBit(s int) slotMask {
	if s < 0 {
		return 0
	}
	return 1 << s
}

func (m slotMask) has(s int) bool { return m&slotBit(s) != 0 }

// membership is one group of indexable definitions selecting the same
// partitions, and the layout of the structures kept over them, one class
// each (classes.go). Fixed by NewAnalyzer, read-only afterwards.
type membership struct {
	ord   int
	key   string      // exact e-only forms and partition columns
	eonly []expr.Cond // the founding definition's compiled e-only conjuncts
	cols  []int       // partition columns, ascending
	// deps are the membership columns: partition columns and the e-only
	// conjuncts' columns. A change to one may move a row between
	// partitions.
	deps depMask
	// trees and sweeps are by surface (a distinct pair of range-axis
	// columns), in order of first use.
	trees  []treeClass
	sweeps []sweepClass
	fold   foldClass
	kd     kdClass
	ext    extClass
	slots  int // slots in use
	// needs holds, per member definition, every slot it reads.
	needs []slotMask
}

// surface is one pair of range-axis columns (-1 where absent) of a group
// and its ordinal, the index of its structures in a part.
type surface struct {
	x, y  int
	shape depMask // the axis columns: the tree's and the sweep's sort keys
	at    int
}

// extremum is one global MIN/MAX fold over a partition: the direction and
// the argument, compiled.
type extremum struct {
	key   string
	isMin bool
	fn    expr.Num
}

// payloadSpec lays out the flattened per-point payload columns a range
// tree (or fold) sums: literal 1s (counts), argument terms, and squared
// argument terms, each once.
type payloadSpec struct {
	fns     []expr.Num // nil entry = constant 1
	squared []bool
	index   map[string]int
	deps    depMask // the argument terms' columns
}

// col returns the column holding the term whose exact form is key (fn
// compiled, nil for the constant 1; squared or not), adding it if absent.
func (ps *payloadSpec) col(key string, fn expr.Num, squared bool, deps depMask) int {
	if squared {
		key += "²"
	}
	if i, ok := ps.index[key]; ok {
		return i
	}
	if ps.index == nil {
		ps.index = map[string]int{}
	}
	ps.fns = append(ps.fns, fn)
	ps.squared = append(ps.squared, squared)
	ps.deps |= deps
	ps.index[key] = len(ps.fns) - 1
	return len(ps.fns) - 1
}

// divCols records which payload columns serve one divisible output.
type divCols struct {
	cnt, sum, sumSq int // -1 when unused
}

// output is the divisible output fn's value from the summed payload
// columns: its empty-set identity, 0, when it counted nothing.
func (d divCols) output(fn ast.AggFunc, payload []float64) float64 {
	switch fn {
	case ast.Count:
		return payload[d.cnt]
	case ast.Sum:
		return payload[d.sum]
	case ast.Avg:
		if payload[d.cnt] > 0 {
			return payload[d.sum] / payload[d.cnt]
		}
	case ast.Stddev:
		if cnt := payload[d.cnt]; cnt > 0 {
			mean := payload[d.sum] / cnt
			variance := payload[d.sumSq]/cnt - mean*mean
			if variance < 0 {
				variance = 0
			}
			return math.Sqrt(variance)
		}
	}
	return 0
}

// exactForm is n's canonical printed form made exact: the ast printer
// rounds numeric literals to six decimals, so each literal's bits follow.
func exactForm(n any) string {
	var b strings.Builder
	fmt.Fprint(&b, n)
	ast.Inspect(n, func(x any) bool {
		if lit, ok := x.(*ast.NumLit); ok {
			fmt.Fprintf(&b, "|%x", math.Float64bits(lit.Val))
		}
		return true
	})
	return b.String()
}

// membershipOf returns the group a definition with these e-only conjuncts
// and equality conjuncts joins — the first with the same membership and
// room for the slots it may add — founding one when there is none. The
// definition records what it reads in the group's needs once laid out.
func (an *Analyzer) membershipOf(eonly []ast.Cond, eonlyFn []expr.Cond, eqs []EqCond) *membership {
	cols := eqCols(eqs)
	forms := make([]string, len(eonly))
	for i, c := range eonly {
		forms[i] = exactForm(c)
	}
	slices.Sort(forms)
	key := fmt.Sprint(cols) + "\n" + strings.Join(forms, "\n")
	for _, g := range an.groups {
		if g.key == key && g.slots+defSlots <= maxSlots {
			return g
		}
	}
	g := &membership{ord: len(an.groups), key: key, eonly: eonlyFn, cols: cols,
		fold: foldClass{slot: -1}, kd: kdClass{slot: -1}, ext: extClass{slot: -1}}
	for _, c := range cols {
		g.deps |= depMask(ColBit(c))
	}
	for _, c := range eonly {
		g.deps |= an.cols(c, "e")
	}
	an.groups = append(an.groups, g)
	return g
}

// addSlot claims the group's next slot for *slot, unless it holds one.
func (g *membership) addSlot(slot *int) int {
	if *slot < 0 {
		*slot = g.slots
		g.slots++
	}
	return *slot
}

// surfaceAt returns the index of the surface over columns (x, y), adding
// it if absent.
func (g *membership) surfaceAt(x, y int) int {
	for i, c := range g.trees {
		if c.x == x && c.y == y {
			return i
		}
	}
	sf := surface{x: x, y: y, at: len(g.trees)}
	for _, c := range []int{x, y} {
		if c >= 0 {
			sf.shape |= depMask(ColBit(c))
		}
	}
	g.trees = append(g.trees, treeClass{surface: sf, slot: -1})
	g.sweeps = append(g.sweeps, sweepClass{surface: sf, slot: -1})
	return sf.at
}

// kdSlot returns the slot of the group's kD-tree over the position
// columns (posX, posY), adding it if absent.
func (g *membership) kdSlot(posX, posY int) int {
	if g.kd.slot < 0 {
		for _, c := range []int{posX, posY} {
			if c >= 0 {
				g.kd.shape |= depMask(ColBit(c))
			}
		}
	}
	return g.addSlot(&g.kd.slot)
}

// extremumFor returns the index of the group's extremum of the argument
// with exact form key in the given direction, adding it (and the extrema
// slot) if absent. MIN and ARGMIN of one argument share an extremum (as
// MAX and ARGMAX do): both read the same (value, key) fold.
func (g *membership) extremumFor(isMin bool, key string, fn expr.Num, deps depMask) int {
	g.addSlot(&g.ext.slot)
	for i, e := range g.ext.exts {
		if e.isMin == isMin && e.key == key {
			return i
		}
	}
	g.ext.exts = append(g.ext.exts, extremum{key: key, isMin: isMin, fn: fn})
	g.ext.shape |= deps
	return len(g.ext.exts) - 1
}

// payload is the payload layout divisible outputs on surface surf sum:
// the surface's tree's, or the fold's without axes (surf < 0).
func (g *membership) payload(surf int) *payloadSpec {
	if surf < 0 {
		return &g.fold.payload
	}
	return &g.trees[surf].payload
}

// all is the set of every slot of the group.
func (g *membership) all() slotMask { return slotMask(1)<<g.slots - 1 }
