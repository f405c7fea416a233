package table

import (
	"fmt"
	"math"
	"sort"
)

// Table is a multiset relation over a Schema. Rows need not be keyed: the
// effect tables produced by scripts routinely contain several rows for the
// same unit, which ⊕ later folds together. Row storage is row-major
// [][]float64; keys are stored as exact integers in float64.
//
// Concurrency: a Table has no internal synchronization. Any number of
// goroutines may read a table (rows, cells, derived indexes) as long as
// none mutates it — this is how the parallel engine treats the per-tick
// environment snapshot, which is frozen for the whole decision phase.
// Mutation requires exclusive access.
type Table struct {
	Schema *Schema
	Rows   [][]float64
}

// New returns an empty table with the given schema and capacity hint.
func New(s *Schema, capacity int) *Table {
	return &Table{Schema: s, Rows: make([][]float64, 0, capacity)}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Append adds a row. The row must have exactly one value per attribute;
// Append panics otherwise, since a width mismatch is always a programming
// error in a plan operator.
func (t *Table) Append(row []float64) {
	if len(row) != t.Schema.NumAttrs() {
		panic(fmt.Sprintf("table: row width %d != schema width %d", len(row), t.Schema.NumAttrs()))
	}
	t.Rows = append(t.Rows, row)
}

// Clone returns a deep copy of the table. The copied rows share one flat
// backing array (two allocations, whatever the row count); each row slice
// is capped at its own end, so appending to a row reallocates it instead
// of overwriting its neighbour.
func (t *Table) Clone() *Table {
	total := 0
	for _, r := range t.Rows {
		total += len(r)
	}
	flat := make([]float64, 0, total)
	c := &Table{Schema: t.Schema, Rows: make([][]float64, len(t.Rows))}
	for i, r := range t.Rows {
		lo := len(flat)
		flat = append(flat, r...)
		c.Rows[i] = flat[lo:len(flat):len(flat)]
	}
	return c
}

// Union returns the multiset union t ⊎ o. Both tables must share an equal
// schema.
func (t *Table) Union(o *Table) *Table {
	if !t.Schema.Equal(o.Schema) {
		panic("table: union of tables with different schemas")
	}
	u := New(t.Schema, len(t.Rows)+len(o.Rows))
	u.Rows = append(u.Rows, t.Rows...)
	u.Rows = append(u.Rows, o.Rows...)
	return u
}

// SortByKey orders rows by key ascending (stable), used to canonicalize
// tables for comparison and to make iteration deterministic.
func (t *Table) SortByKey() {
	kc := t.Schema.KeyCol()
	sort.SliceStable(t.Rows, func(i, j int) bool { return t.Rows[i][kc] < t.Rows[j][kc] })
}

// constFingerprint hashes the const-column projection of a row, for ⊕
// grouping. Collisions are resolved by full comparison in Combine.
func constFingerprint(row []float64, consts []int) uint64 {
	// FNV-1a over the raw float bits.
	h := uint64(1469598103934665603)
	for _, c := range consts {
		bits := math.Float64bits(row[c])
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

func constEqual(a, b []float64, consts []int) bool {
	for _, c := range consts {
		if a[c] != b[c] {
			return false
		}
	}
	return true
}

// Combine implements the paper's ⊕R (Section 4.2): group rows by the const
// attributes and fold each effect attribute with its tagged aggregate
// (sum/max/min). The result has at most one row per distinct const tuple;
// group order follows first appearance, so Combine is deterministic.
//
// Combine is associative, commutative and idempotent (paper Eq. 3); the
// property tests in combine_test.go check all three.
func (t *Table) Combine() *Table {
	consts := t.Schema.ConstCols()
	fx := t.Schema.EffectCols()
	out := New(t.Schema, len(t.Rows))
	groups := make(map[uint64][]int, len(t.Rows)) // fingerprint → out-row indexes

	for _, row := range t.Rows {
		fp := constFingerprint(row, consts)
		merged := false
		for _, oi := range groups[fp] {
			if constEqual(out.Rows[oi], row, consts) {
				for _, c := range fx {
					out.Rows[oi][c] = t.Schema.attrs[c].Kind.Fold(out.Rows[oi][c], row[c])
				}
				merged = true
				break
			}
		}
		if !merged {
			out.Rows = append(out.Rows, append([]float64(nil), row...))
			groups[fp] = append(groups[fp], len(out.Rows)-1)
		}
	}
	return out
}

// EqualContents reports whether two tables contain the same multiset of
// rows (order-insensitive), comparing values exactly. Schemas must match.
// Kept as the differential tests' oracle and the examples' check.
func (t *Table) EqualContents(o *Table) bool {
	if !t.Schema.Equal(o.Schema) || len(t.Rows) != len(o.Rows) {
		return false
	}
	a, b := t.Clone(), o.Clone()
	canon := func(x *Table) {
		sort.Slice(x.Rows, func(i, j int) bool { return rowLess(x.Rows[i], x.Rows[j]) })
	}
	canon(a)
	canon(b)
	for i := range a.Rows {
		for c := range a.Rows[i] {
			av, bv := a.Rows[i][c], b.Rows[i][c]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				return false
			}
		}
	}
	return true
}

// AlmostEqualContents is EqualContents with a per-value absolute tolerance,
// for comparing plans that compute the same aggregates in different
// floating-point orders.
func (t *Table) AlmostEqualContents(o *Table, eps float64) bool {
	if !t.Schema.Equal(o.Schema) || len(t.Rows) != len(o.Rows) {
		return false
	}
	a, b := t.Clone(), o.Clone()
	canon := func(x *Table) {
		sort.Slice(x.Rows, func(i, j int) bool { return rowLess(x.Rows[i], x.Rows[j]) })
	}
	canon(a)
	canon(b)
	for i := range a.Rows {
		for c := range a.Rows[i] {
			av, bv := a.Rows[i][c], b.Rows[i][c]
			if math.IsNaN(av) && math.IsNaN(bv) {
				continue
			}
			if math.IsInf(av, 0) || math.IsInf(bv, 0) {
				if av != bv {
					return false
				}
				continue
			}
			if math.Abs(av-bv) > eps {
				return false
			}
		}
	}
	return true
}

func rowLess(a, b []float64) bool {
	for i := range a {
		ai, bi := canonFloat(a[i]), canonFloat(b[i])
		if ai != bi {
			return ai < bi
		}
	}
	return false
}

// canonFloat maps NaN to a sortable sentinel so rowLess is a total order.
func canonFloat(v float64) float64 {
	if math.IsNaN(v) {
		return math.Inf(-1)
	}
	return v
}
