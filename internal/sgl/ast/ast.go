// Package ast defines the abstract syntax of SGL (paper Section 4.1).
//
// A script is a set of declarations:
//
//   - action functions (the `function` grammar of the paper: let,
//     sequencing, if-then-else, perform);
//   - aggregate function definitions (the SQL fragments of Figure 4 /
//     Eq. (5)), written `aggregate Name(u, p…) := out, … over e where φ;`
//   - built-in action definitions (Figure 5 / Eq. (4)), written
//     `action Name(u, p…) := on e where φ set A = t, …;`
//
// Terms and conditions are shared between the two worlds; a term may
// reference the current unit u, the scanned environment row e (only inside
// aggregate/action definitions), parameters, let-bound variables, game
// constants, Random(i), and aggregate calls (only inside action functions).
package ast

import (
	"fmt"
	"strings"

	"github.com/epicscale/sgl/internal/sgl/token"
)

// ---------------------------------------------------------------------------
// Terms

// Term is an SGL term: arithmetic over constants, attributes, random
// numbers, and aggregate function calls (paper Section 4.1).
type Term interface {
	Pos() token.Pos
	String() string
	isTerm()
}

// NumLit is a numeric literal.
type NumLit struct {
	P   token.Pos
	Val float64
}

// ConstRef references a named game constant such as _TIME_RELOAD.
type ConstRef struct {
	P    token.Pos
	Name string
}

// VarRef references a parameter or let-bound variable.
type VarRef struct {
	P    token.Pos
	Name string
}

// FieldRef is Base.Field: an attribute of the current unit (u.posx), of the
// scanned row (e.posx, in definitions only), or a field of a record-valued
// variable (away_vector.x).
type FieldRef struct {
	P           token.Pos
	Base, Field string
}

// BinOp is a binary arithmetic operator.
type BinOp uint8

// Arithmetic operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
)

func (o BinOp) String() string { return [...]string{"+", "-", "*", "/", "%"}[o] }

// Binary applies an arithmetic operator to two terms.
type Binary struct {
	P    token.Pos
	Op   BinOp
	X, Y Term
}

// Neg is unary minus.
type Neg struct {
	P token.Pos
	X Term
}

// Call is a function application: Random(i), a scalar builtin (abs, min,
// max, sqrt, floor), or — inside action functions only — an aggregate
// function call whose first argument must be u.
type Call struct {
	P    token.Pos
	Name string
	Args []Term
}

// Pair is the record constructor (x, y) used for positions and vectors,
// e.g. the (u.posx, u.posy) − Centroid(…) of the paper's Figure 3. Its
// fields are named x and y.
type Pair struct {
	P    token.Pos
	X, Y Term
}

// Field accesses a field of a record-valued term, e.g. NearestEnemy(u).key.
type Field struct {
	P     token.Pos
	X     Term
	Field string
}

func (t *NumLit) Pos() token.Pos   { return t.P }
func (t *ConstRef) Pos() token.Pos { return t.P }
func (t *VarRef) Pos() token.Pos   { return t.P }
func (t *FieldRef) Pos() token.Pos { return t.P }
func (t *Binary) Pos() token.Pos   { return t.P }
func (t *Neg) Pos() token.Pos      { return t.P }
func (t *Call) Pos() token.Pos     { return t.P }
func (t *Pair) Pos() token.Pos     { return t.P }
func (t *Field) Pos() token.Pos    { return t.P }

func (*NumLit) isTerm()   {}
func (*ConstRef) isTerm() {}
func (*VarRef) isTerm()   {}
func (*FieldRef) isTerm() {}
func (*Binary) isTerm()   {}
func (*Neg) isTerm()      {}
func (*Call) isTerm()     {}
func (*Pair) isTerm()     {}
func (*Field) isTerm()    {}

func (t *NumLit) String() string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", t.Val), "0"), ".")
}
func (t *ConstRef) String() string { return t.Name }
func (t *VarRef) String() string   { return t.Name }
func (t *FieldRef) String() string { return t.Base + "." + t.Field }
func (t *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", t.X, t.Op, t.Y)
}
func (t *Neg) String() string { return fmt.Sprintf("(-%s)", t.X) }
func (t *Call) String() string {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", t.Name, strings.Join(args, ", "))
}
func (t *Pair) String() string  { return fmt.Sprintf("(%s, %s)", t.X, t.Y) }
func (t *Field) String() string { return fmt.Sprintf("%s.%s", t.X, t.Field) }

// ---------------------------------------------------------------------------
// Conditions

// Cond is a Boolean combination of atomic comparisons (paper Section 4.1:
// "conditions are Boolean combinations of atomic conditions").
type Cond interface {
	Pos() token.Pos
	String() string
	isCond()
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators; the paper lists =, <, ≤, ≠ and we add their
// mirror images for convenience.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (o CmpOp) String() string { return [...]string{"=", "<>", "<", "<=", ">", ">="}[o] }

// Compare is an atomic condition t1 op t2.
type Compare struct {
	P    token.Pos
	Op   CmpOp
	X, Y Term
}

// And is conjunction.
type And struct {
	P    token.Pos
	X, Y Cond
}

// Or is disjunction.
type Or struct {
	P    token.Pos
	X, Y Cond
}

// Not is negation.
type Not struct {
	P token.Pos
	X Cond
}

// BoolLit is a literal condition (true/false).
type BoolLit struct {
	P   token.Pos
	Val bool
}

func (c *Compare) Pos() token.Pos { return c.P }
func (c *And) Pos() token.Pos     { return c.P }
func (c *Or) Pos() token.Pos      { return c.P }
func (c *Not) Pos() token.Pos     { return c.P }
func (c *BoolLit) Pos() token.Pos { return c.P }

func (*Compare) isCond() {}
func (*And) isCond()     {}
func (*Or) isCond()      {}
func (*Not) isCond()     {}
func (*BoolLit) isCond() {}

func (c *Compare) String() string { return fmt.Sprintf("%s %s %s", c.X, c.Op, c.Y) }
func (c *And) String() string     { return fmt.Sprintf("(%s and %s)", c.X, c.Y) }
func (c *Or) String() string      { return fmt.Sprintf("(%s or %s)", c.X, c.Y) }
func (c *Not) String() string     { return fmt.Sprintf("(not %s)", c.X) }
func (c *BoolLit) String() string { return fmt.Sprintf("%v", c.Val) }

// Conjuncts flattens a condition into its top-level conjuncts. The paper's
// index construction assumes φ is conjunctive (Section 5.3); the planner
// uses this to classify each conjunct separately.
func Conjuncts(c Cond) []Cond {
	if a, ok := c.(*And); ok {
		return append(Conjuncts(a.X), Conjuncts(a.Y)...)
	}
	return []Cond{c}
}

// ---------------------------------------------------------------------------
// Actions (the `function` bodies)

// Action is a node of the paper's action grammar.
type Action interface {
	Pos() token.Pos
	isAction()
}

// Let binds Name to Value for the scope of Body: "(let v := t) f" extends
// the current unit record by the value of term t.
type Let struct {
	P     token.Pos
	Name  string
	Value Term
	Body  Action
}

// Seq is "f1; f2; …" — per the semantics, the ⊕-combination of its parts'
// effect tables, not sequential execution.
type Seq struct {
	P    token.Pos
	Acts []Action
}

// If is "if φ then f1 [else f2]"; a nil Else is the one-armed form. The
// two-armed form abbreviates "if φ then f1; if ¬φ then f2".
type If struct {
	P    token.Pos
	Cond Cond
	Then Action
	Else Action // may be nil
}

// Perform invokes a defined function or a built-in action. The first
// argument is conventionally u.
type Perform struct {
	P    token.Pos
	Name string
	Args []Term
}

// Nop is the empty action (a unit in cooldown "just performs an empty
// action").
type Nop struct {
	P token.Pos
}

func (a *Let) Pos() token.Pos     { return a.P }
func (a *Seq) Pos() token.Pos     { return a.P }
func (a *If) Pos() token.Pos      { return a.P }
func (a *Perform) Pos() token.Pos { return a.P }
func (a *Nop) Pos() token.Pos     { return a.P }

func (*Let) isAction()     {}
func (*Seq) isAction()     {}
func (*If) isAction()      {}
func (*Perform) isAction() {}
func (*Nop) isAction()     {}

// ---------------------------------------------------------------------------
// Declarations

// FuncDef is an SGL action function. The entry point is the function named
// "main" ("each script has a main action function called MAIN").
type FuncDef struct {
	P        token.Pos
	Name     string
	Params   []string    // first is the unit parameter, conventionally u
	ParamPos []token.Pos // position of each parameter; parallel to Params
	Body     Action
}

// AggFunc identifies the SQL aggregate of one aggregate output column.
type AggFunc uint8

// Aggregate functions. Count/Sum/Avg/Stddev are divisible (Definition 5.1)
// and indexable by the layered range tree; Min/Max/ArgMin/ArgMax use the
// sweep line; NearestKey/NearestDist are the spatial aggregates served by
// the kD-tree (Section 5.3.2).
const (
	Count AggFunc = iota
	Sum
	Avg
	Stddev
	Min
	Max
	ArgMin
	ArgMax
	NearestKey
	NearestDist
	NearestX
	NearestY
)

var aggNames = [...]string{"count", "sum", "avg", "stddev", "min", "max", "argmin", "argmax", "nearestkey", "nearestdist", "nearestx", "nearesty"}

func (f AggFunc) String() string { return aggNames[f] }

// AggFuncByName maps lowercase spellings to AggFunc.
var AggFuncByName = map[string]AggFunc{
	"count": Count, "sum": Sum, "avg": Avg, "stddev": Stddev,
	"min": Min, "max": Max, "argmin": ArgMin, "argmax": ArgMax,
	"nearestkey": NearestKey, "nearestdist": NearestDist,
	"nearestx": NearestX, "nearesty": NearestY,
}

// AggOutput is one output column of an aggregate definition:
// func(arg) as name. Count, NearestKey and NearestDist take no argument.
type AggOutput struct {
	P    token.Pos
	Func AggFunc
	Arg  Term   // nil for Count/NearestKey/NearestDist
	As   string // result field name
}

// AggDef is an aggregate function definition (Figure 4 / Eq. (5)):
//
//	aggregate Name(u, p…) := out1, out2, … over e where φ;
//
// Semantically: SELECT a1(h1(u,e,r)) …, ak(hk(u,e,r)) FROM E e WHERE φ(u,e,r).
type AggDef struct {
	P        token.Pos
	Name     string
	Params   []string    // first is the unit parameter
	ParamPos []token.Pos // position of each parameter; parallel to Params
	Outputs  []AggOutput
	Where    Cond // may be nil (no predicate: aggregate over all of E)
	// Ord is the definition's position in its script's Aggs, set by the
	// parser: the dense ordinal analyses are looked up by.
	Ord int
}

// SetClause assigns an effect attribute in an action definition.
type SetClause struct {
	P     token.Pos
	Attr  string
	Value Term
}

// ActDef is a built-in action definition (Figure 5 / Eq. (4)):
//
//	action Name(u, p…) := on e where φ set A1 = t1, …;
//
// Semantically: SELECT e.K, h1(u,e,r) AS A1, … FROM E e WHERE φ(u,e,r),
// with every unmentioned effect attribute left at its identity.
type ActDef struct {
	P        token.Pos
	Name     string
	Params   []string
	ParamPos []token.Pos // position of each parameter; parallel to Params
	Where    Cond        // may be nil (applies to every unit)
	Sets     []SetClause
	// Ord is the definition's position in its script's Acts, set by the
	// parser: the dense ordinal analyses are looked up by.
	Ord int
}

// Script is a parsed SGL compilation unit.
type Script struct {
	Funcs []*FuncDef
	Aggs  []*AggDef
	Acts  []*ActDef
}

// Func returns the function with the given name, or nil.
func (s *Script) Func(name string) *FuncDef {
	for _, f := range s.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Agg returns the aggregate definition with the given name, or nil.
func (s *Script) Agg(name string) *AggDef {
	for _, a := range s.Aggs {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Act returns the action definition with the given name, or nil.
func (s *Script) Act(name string) *ActDef {
	for _, a := range s.Acts {
		if a.Name == name {
			return a
		}
	}
	return nil
}
