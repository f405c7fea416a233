// Package table implements the paper's environment relation E (Section 4):
// a multiset table whose schema E(K, A1, …, Ak) tags every attribute with a
// combination type τ ∈ {const, sum, max, min}, together with the combination
// operator ⊕ of Section 4.2 that merges the effect tables produced by SGL
// scripts.
//
// Attributes of kind Const describe unit state and can never be the direct
// subject of an effect (position, health, cooldown, …). The remaining
// attributes are effect accumulators: Sum for stackable effects (damage,
// movement vectors), Max/Min for nonstackable ones (healing auras, priority
// effects). ⊕ groups rows by the const attributes and folds each effect
// attribute with its tagged aggregate.
package table

import (
	"fmt"
	"math"
	"strings"
)

// Kind is the combination type τ of an attribute (paper Section 4.2).
type Kind uint8

// The four combination types. Const attributes are grouped on by ⊕; the
// others are folded with the aggregate of the same name.
const (
	Const Kind = iota
	Sum
	Max
	Min
)

// String returns the lowercase tag name used in the paper.
func (k Kind) String() string {
	switch k {
	case Const:
		return "const"
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Identity returns the neutral element of the kind's fold: 0 for Sum, -∞
// for Max, +∞ for Min. Effect attributes are initialized to their identity
// at the start of every tick. Const has no identity and panics.
func (k Kind) Identity() float64 {
	switch k {
	case Sum:
		return 0
	case Max:
		return math.Inf(-1)
	case Min:
		return math.Inf(1)
	default:
		panic("table: Identity of const attribute")
	}
}

// Fold combines two effect values according to the kind. Const panics.
func (k Kind) Fold(a, b float64) float64 {
	switch k {
	case Sum:
		return a + b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	default:
		panic("table: Fold on const attribute")
	}
}

// Attr is one column of the environment schema.
type Attr struct {
	Name string
	Kind Kind
}

// KeyAttr is the name of the distinguished key attribute K. Its kind is
// always Const ("the type of K is always const").
const KeyAttr = "key"

// Schema is an immutable environment schema. Construct with NewSchema;
// the zero value is not usable.
type Schema struct {
	attrs  []Attr
	byName map[string]int
	keyCol int
	consts []int // column indexes of const attributes, ascending
	fx     []int // column indexes of effect (non-const) attributes, ascending
}

// NewSchema builds a schema from the given attributes. It returns an error
// if names repeat, if any name is empty, or if there is no Const attribute
// named "key".
func NewSchema(attrs ...Attr) (*Schema, error) {
	s := &Schema{
		attrs:  append([]Attr(nil), attrs...),
		byName: make(map[string]int, len(attrs)),
		keyCol: -1,
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("table: attribute %d has empty name", i)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("table: duplicate attribute %q", a.Name)
		}
		s.byName[a.Name] = i
		if a.Name == KeyAttr {
			if a.Kind != Const {
				return nil, fmt.Errorf("table: key attribute must be const, got %v", a.Kind)
			}
			s.keyCol = i
		}
		if a.Kind == Const {
			s.consts = append(s.consts, i)
		} else {
			s.fx = append(s.fx, i)
		}
	}
	if s.keyCol < 0 {
		return nil, fmt.Errorf("table: schema has no %q attribute", KeyAttr)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(attrs ...Attr) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttrs returns the number of columns.
func (s *Schema) NumAttrs() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attr { return s.attrs[i] }

// Col returns the column index of the named attribute.
func (s *Schema) Col(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustCol is Col that panics if the attribute does not exist.
func (s *Schema) MustCol(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("table: no attribute %q in schema %v", name, s))
	}
	return i
}

// KeyCol returns the column index of the key attribute K.
func (s *Schema) KeyCol() int { return s.keyCol }

// ConstCols returns the column indexes of const attributes (including the
// key), in ascending order. The returned slice must not be modified.
func (s *Schema) ConstCols() []int { return s.consts }

// EffectCols returns the column indexes of non-const attributes, in
// ascending order. The returned slice must not be modified.
func (s *Schema) EffectCols() []int { return s.fx }

// Equal reports whether two schemas have identical attribute lists.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if o == nil || len(s.attrs) != len(o.attrs) {
		return false
	}
	for i := range s.attrs {
		if s.attrs[i] != o.attrs[i] {
			return false
		}
	}
	return true
}

// String renders the schema as E(name:kind, …).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString("E(")
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Kind)
	}
	b.WriteString(")")
	return b.String()
}
