package algebra

import (
	"github.com/epicscale/sgl/internal/table"
)

// This file implements the ⊕-interaction rules of paper Figure 7 as
// table-level operations, so their soundness can be property-tested
// directly (the TestRule* tests). The plan-level Optimize uses them
// implicitly: the executor's single effects-⊎-E combine at the end of a
// tick is exactly the normal form these rules justify.

// combine is R ⊕ S: ⊕(R ⊎ S).
func combine(r, s *table.Table) *table.Table { return r.Union(s).Combine() }

// SelectRows is σφ on a materialized table (multiset semantics: row order
// preserved, rows shared not copied).
func SelectRows(t *table.Table, pred func(row []float64) bool) *table.Table {
	out := table.New(t.Schema, t.Len())
	for _, r := range t.Rows {
		if pred(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out
}

// PaperAction models a built-in action in the *paper's* output convention
// (Figure 5): the action's SELECT copies every attribute of the input row
// and overwrites some effect attributes with new values computed from the
// row. Delta is added for Sum attributes and folded for Max/Min attributes,
// matching "e.damage + (...) AS damage".
type PaperAction struct {
	Col   int                         // effect column the action writes
	Delta func(row []float64) float64 // contribution computed from the row
}

// Apply returns act⊕(R) in the paper's convention: one output row per input
// row, all attributes copied, the action column folded with the delta.
// Because each input row yields exactly one output row with the same const
// attributes, the result of applying to a keyed table is keyed.
func (a PaperAction) Apply(t *table.Table) *table.Table {
	out := table.New(t.Schema, t.Len())
	kind := t.Schema.Attr(a.Col).Kind
	for _, r := range t.Rows {
		nr := append([]float64(nil), r...)
		switch kind {
		case table.Sum:
			nr[a.Col] = r[a.Col] + a.Delta(r)
		default:
			nr[a.Col] = kind.Fold(r[a.Col], a.Delta(r))
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// JoinCombineK implements the right-hand side of rule (10):
// π1.*⊕2.*(R1⊕ ⋈K R2⊕) — join two keyed tables on K and fold each effect
// attribute pairwise. Both tables must be keyed on the same key set with
// identical const attributes per key; JoinCombineK panics otherwise, since
// rule (10) is only stated for that case.
func JoinCombineK(r1, r2 *table.Table) *table.Table {
	if !r1.Schema.Equal(r2.Schema) {
		panic("algebra: JoinCombineK schema mismatch")
	}
	s := r1.Schema
	byKey := func(t *table.Table) map[float64][]float64 {
		m := make(map[float64][]float64, t.Len())
		for _, r := range t.Rows {
			m[r[s.KeyCol()]] = r
		}
		return m
	}
	k1, k2 := byKey(r1), byKey(r2)
	if len(k1) != r1.Len() || len(k2) != r2.Len() || r1.Len() != r2.Len() {
		panic("algebra: JoinCombineK requires keyed tables over the same keys")
	}
	out := table.New(s, r1.Len())
	for _, a := range r1.Rows {
		b := k2[a[s.KeyCol()]]
		if b == nil {
			panic("algebra: JoinCombineK key sets differ")
		}
		nr := make([]float64, s.NumAttrs())
		for _, c := range s.ConstCols() {
			if a[c] != b[c] {
				panic("algebra: JoinCombineK const attributes differ")
			}
			nr[c] = a[c]
		}
		for _, c := range s.EffectCols() {
			nr[c] = s.Attr(c).Kind.Fold(a[c], b[c])
		}
		out.Rows = append(out.Rows, nr)
	}
	return out
}

// EffectsNeutral reports whether every Sum-kind effect attribute of every
// row is 0. This is the tick-start invariant under which the covering-
// action rule act⊕(R) ⊕ R = act⊕(R) of Example 5.1 step 2 is valid: for
// Max/Min attributes the paper-convention action output already folds in
// the base value and the fold is idempotent, so only Sum attributes (where
// re-adding the base would double-count) need to start neutral.
func EffectsNeutral(t *table.Table) bool {
	for _, r := range t.Rows {
		for _, c := range t.Schema.EffectCols() {
			if t.Schema.Attr(c).Kind == table.Sum && r[c] != 0 {
				return false
			}
		}
	}
	return true
}
