// Package expr compiles SGL terms and conditions into Go closures over
// pre-resolved integers: the one evaluation form the plan executor
// (package algebra), the indexed provider (package exec) and the engine's
// deferred-area path share.
//
// Everything that is fixed per plan or per definition is resolved once,
// at compile time: a row attribute becomes a column index, a let name an
// extension slot, a definition parameter an argument index, a record
// field an offset, a builtin a direct call, an operator its own closure.
// What can change between two evaluations is read at call time: the rows
// and slots through the Frame, the tick's random source through Frame.R,
// and game constants through the owning Program's cells (sem.ConstCell) —
// never baked in, so an OpTune reaches every closure already compiled.
//
// The closures perform exactly the float operations of the tree-walking
// interpreter (package interp), operand by operand and in the same
// order, so compiled and interpreted evaluation agree bit for bit —
// including IEEE-754 specials: arithmetic is total (x/0 is ±Inf, 0/0 and
// a zero modulus are NaN, NaN propagates), and NaN compares false under
// =, <, <=, >, >= and true under <>. interp stays a walker on purpose:
// it is the independent oracle the compiled form is tested against
// (TestCompiledMatchesInterpreted).
package expr

import (
	"fmt"
	"math"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// Frame is what a compiled closure evaluates against. One frame belongs
// to one evaluator (an Executor, an Indexed view) and is rebound between
// evaluations; closures never retain it.
type Frame struct {
	Unit   []float64      // the probing or acting unit's row (u)
	Target []float64      // the scanned row (e); definition scope only
	Args   []float64      // definition parameters after the unit
	Ext    []interp.Value // let slots; plan scope only
	R      rng.TickSource // the tick's Random source

	// Host and Ord belong to the frame's owner: plan-scope aggregate
	// calls (compiled by package algebra) reach their executor and the
	// current row's ordinal through them.
	Host any
	Ord  int
}

// Num is a compiled number-valued term.
type Num func(f *Frame) float64

// Rec is a compiled record-valued term: it returns the field values, in
// the order of the owning Term's Fields.
type Rec func(f *Frame) []float64

// Cond is a compiled condition.
type Cond func(f *Frame) bool

// Term is a compiled term with its static type: exactly one of Num and
// Rec is set, and Fields names a record's components. A record also
// carries Comps, one scalar closure per field that computes that field
// alone: selecting a field runs its component's arithmetic and nothing
// else, and builds no record. Rec is for the whole value (a let slot):
// only a leaf record (Record) has its own; a composite one collects its
// components (fromComps), so a field and the whole agree by construction.
type Term struct {
	Num    Num
	Rec    Rec
	Fields []string
	Comps  []Num
}

// Record is the Term of a record that rec produces whole — a let slot, an
// aggregate call: each component reads its field out of rec's result.
func Record(fields []string, rec Rec) Term {
	comps := make([]Num, len(fields))
	for i := range comps {
		comps[i] = func(f *Frame) float64 { return rec(f)[i] }
	}
	return Term{Fields: fields, Rec: rec, Comps: comps}
}

// fromComps is the composite record whose field i is comps[i]; its whole
// value is the components evaluated in order into a fresh slice.
func fromComps(fields []string, comps []Num) Term {
	return Term{Fields: fields, Comps: comps, Rec: func(f *Frame) []float64 {
		out := make([]float64, len(comps))
		for i, c := range comps {
			out[i] = c(f)
		}
		return out
	}}
}

// Value evaluates the term into the runtime value representation let
// slots store.
func (t Term) Value(f *Frame) interp.Value {
	if t.Rec != nil {
		return interp.RecVal(t.Fields, t.Rec(f))
	}
	return interp.NumVal(t.Num(f))
}

// Row says which frame row a name denotes.
type Row uint8

// Frame rows.
const (
	NoRow     Row = iota // not a row variable
	UnitRow              // Frame.Unit
	TargetRow            // Frame.Target
)

// Scope resolves the names a term may mention. The two scopes of SGL are
// Def (aggregate and action definitions) and the plan scope package
// algebra builds over its let slots.
type Scope interface {
	// Row reports which frame row a field-reference base names.
	Row(base string) Row
	// Var resolves a bare name: a let slot or a definition parameter.
	Var(name string) (Term, bool)
	// RandomRow is the row whose key seeds Random: the unit in scripts,
	// the scanned row in definitions (the paper's Random(e, 1)).
	RandomRow() Row
	// Call compiles a call that is neither Random nor a scalar builtin —
	// an aggregate probe — given its compiled arguments after the unit.
	Call(n *ast.Call, args []Num) (Term, error)
}

// Def is the scope of an aggregate or action definition: Params[0] names
// the probing unit, "e" the scanned row, Params[1:] the arguments.
type Def struct{ Params []string }

// Row implements Scope.
func (d Def) Row(base string) Row {
	switch base {
	case "e":
		return TargetRow
	case d.Params[0]:
		return UnitRow
	}
	return NoRow
}

// Var implements Scope.
func (d Def) Var(name string) (Term, bool) {
	for i, p := range d.Params[1:] {
		if p == name {
			return Term{Num: func(f *Frame) float64 { return f.Args[i] }}, true
		}
	}
	return Term{}, false
}

// RandomRow implements Scope.
func (Def) RandomRow() Row { return TargetRow }

// Call implements Scope: definitions cannot call aggregates.
func (Def) Call(n *ast.Call, _ []Num) (Term, error) {
	return Term{}, fmt.Errorf("expr: call %q not allowed in definitions at %s", n.Name, n.P)
}

// Compiler compiles the terms and conditions of one scope of one
// program. A semantically checked program always compiles; an error
// means the AST was not checked against this program and scope.
type Compiler struct {
	prog  *sem.Program
	scope Scope
}

// New returns a compiler for prog's terms in the given scope.
func New(prog *sem.Program, scope Scope) *Compiler {
	return &Compiler{prog: prog, scope: scope}
}

// Num compiles a term that must be number-valued.
func (c *Compiler) Num(t ast.Term) (Num, error) {
	ct, err := c.Term(t)
	if err != nil {
		return nil, err
	}
	if ct.Num == nil {
		return nil, fmt.Errorf("expr: record value where a number is required at %s", t.Pos())
	}
	return ct.Num, nil
}

// Nums compiles a list of number-valued terms.
func (c *Compiler) Nums(ts []ast.Term) ([]Num, error) {
	out := make([]Num, len(ts))
	for i, t := range ts {
		n, err := c.Num(t)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

var pairFields = []string{"x", "y"}

// Term compiles a term.
func (c *Compiler) Term(t ast.Term) (Term, error) {
	switch n := t.(type) {
	case *ast.NumLit:
		v := n.Val
		return Term{Num: func(*Frame) float64 { return v }}, nil

	case *ast.ConstRef:
		cell, ok := c.prog.ConstCell(n.Name)
		if !ok {
			return Term{}, fmt.Errorf("expr: unknown game constant %s at %s", n.Name, n.P)
		}
		return Term{Num: func(*Frame) float64 { return *cell }}, nil

	case *ast.VarRef:
		v, ok := c.scope.Var(n.Name)
		if !ok {
			return Term{}, fmt.Errorf("expr: unresolved name %q at %s", n.Name, n.P)
		}
		return v, nil

	case *ast.FieldRef:
		row := c.scope.Row(n.Base)
		if row == NoRow {
			base, ok := c.scope.Var(n.Base)
			if !ok {
				return Term{}, fmt.Errorf("expr: unresolved name %q at %s", n.Base, n.P)
			}
			return selectField(base, n.Field, n)
		}
		col, ok := c.prog.Schema.Col(n.Field)
		if !ok {
			return Term{}, fmt.Errorf("expr: schema has no attribute %q at %s", n.Field, n.P)
		}
		if row == TargetRow {
			return Term{Num: func(f *Frame) float64 { return f.Target[col] }}, nil
		}
		return Term{Num: func(f *Frame) float64 { return f.Unit[col] }}, nil

	case *ast.Field:
		base, err := c.Term(n.X)
		if err != nil {
			return Term{}, err
		}
		return selectField(base, n.Field, n)

	case *ast.Pair:
		x, err := c.Num(n.X)
		if err != nil {
			return Term{}, err
		}
		y, err := c.Num(n.Y)
		if err != nil {
			return Term{}, err
		}
		return fromComps(pairFields, []Num{x, y}), nil

	case *ast.Neg:
		x, err := c.Term(n.X)
		if err != nil {
			return Term{}, err
		}
		if x.Rec != nil {
			comps := make([]Num, len(x.Comps))
			for i, xc := range x.Comps {
				comps[i] = func(f *Frame) float64 { return -xc(f) }
			}
			return fromComps(x.Fields, comps), nil
		}
		num := x.Num
		return Term{Num: func(f *Frame) float64 { return -num(f) }}, nil

	case *ast.Binary:
		x, err := c.Term(n.X)
		if err != nil {
			return Term{}, err
		}
		y, err := c.Term(n.Y)
		if err != nil {
			return Term{}, err
		}
		return binary(n.Op, x, y), nil

	case *ast.Call:
		return c.call(n)
	}
	return Term{}, fmt.Errorf("expr: unknown term node %T", t)
}

// selectField compiles base.field on a record-valued term: the first
// field of that name, like interp.Value.Field — its component closure.
func selectField(base Term, field string, at ast.Term) (Term, error) {
	if base.Rec == nil {
		return Term{}, fmt.Errorf("expr: field %q of a non-record value at %s", field, at.Pos())
	}
	for i, name := range base.Fields {
		if name == field {
			return Term{Num: base.Comps[i]}, nil
		}
	}
	return Term{}, fmt.Errorf("expr: record has no field %q at %s", field, at.Pos())
}

// quiet is what the hardware makes of a NaN operand: the same payload
// with the quiet bit set.
func quiet(nan float64) float64 {
	return math.Float64frombits(math.Float64bits(nan) | 1<<51)
}

// add and mul pin down the one thing a + b and a * b leave to the code
// generator: which NaN survives when both operands are NaN with different
// payloads (0/0 and x % 0 produce different ones). The hardware keeps the
// instruction's first operand, and for a commutative operator the
// compiler chooses which source operand that is — so two compilations of
// "a + b" (the interpreter's and a closure's, or the same source inlined
// in two places) may disagree in that one case. SGL's rule is the left
// operand; the interpreter states it too (interp.leftNaN), each side in
// its own words. Subtraction and division are not commutative: there the
// hardware rule already is the left operand.
func add(a, b float64) float64 {
	if a != a {
		return quiet(a)
	}
	return a + b
}

func mul(a, b float64) float64 {
	if a != a {
		return quiet(a)
	}
	return a * b
}

// Mod is SGL's modulus, a % b: truncated like C, on the integer parts —
// bit for bit math.Trunc(math.Mod(a, b)), the rule the interpreter
// states in its own words. Operands that are both integers of magnitude
// at most 2^53, with b nonzero, take the int64 remainder: exact for
// them, with the sign (of a zero too) the dividend's, as math.Mod's.
// Everything else — fractions, zero divisors, ±Inf, NaN, magnitudes
// past 2^53 — takes math.Mod. The compiled closures and sglvet's
// constant folder both call it, so a folded comparison decides what the
// runtime does.
func Mod(a, b float64) float64 {
	const lim = 1 << 53
	if a >= -lim && a <= lim && b >= -lim && b <= lim && b != 0 {
		if ia, ib := int64(a), int64(b); float64(ia) == a && float64(ib) == b {
			return math.Copysign(float64(ia%ib), a)
		}
	}
	return math.Trunc(math.Mod(a, b))
}

// binary compiles x op y: scalar arithmetic gets one closure per
// operator (no dispatch at call time); records apply componentwise and
// broadcast against a scalar, exactly as the interpreter does — a record
// result's component i is the scalar closure over the operands' component
// i (a scalar operand as it is).
func binary(op ast.BinOp, x, y Term) Term {
	if x.Rec == nil && y.Rec == nil {
		return Term{Num: scalar(op, x.Num, y.Num)}
	}
	fields := x.Fields
	if x.Rec == nil {
		fields = y.Fields
	}
	comps := make([]Num, len(fields))
	for i := range comps {
		a, b := x.Num, y.Num
		if x.Rec != nil {
			a = x.Comps[i]
		}
		if y.Rec != nil {
			b = y.Comps[i]
		}
		comps[i] = scalar(op, a, b)
	}
	return fromComps(fields, comps)
}

// scalar is the closure of a op b on numbers.
func scalar(op ast.BinOp, a, b Num) Num {
	switch op {
	case ast.Add:
		return func(f *Frame) float64 { return add(a(f), b(f)) }
	case ast.Sub:
		return func(f *Frame) float64 { return a(f) - b(f) }
	case ast.Mul:
		return func(f *Frame) float64 { return mul(a(f), b(f)) }
	case ast.Div:
		return func(f *Frame) float64 { return a(f) / b(f) }
	default:
		return func(f *Frame) float64 { return Mod(a(f), b(f)) }
	}
}

func (c *Compiler) call(n *ast.Call) (Term, error) {
	arity := -1
	switch n.Name {
	case "Random", "random", "abs", "sqrt", "floor":
		arity = 1
	case "min", "max":
		arity = 2
	}
	if arity < 0 {
		if len(n.Args) == 0 {
			return Term{}, fmt.Errorf("expr: call %q without the unit argument at %s", n.Name, n.P)
		}
		args, err := c.Nums(n.Args[1:])
		if err != nil {
			return Term{}, err
		}
		return c.scope.Call(n, args)
	}
	if len(n.Args) != arity {
		return Term{}, fmt.Errorf("expr: %s takes %d argument(s), got %d at %s", n.Name, arity, len(n.Args), n.P)
	}
	args, err := c.Nums(n.Args)
	if err != nil {
		return Term{}, err
	}
	a := args[0]
	switch n.Name {
	case "Random", "random":
		kc := c.prog.Schema.KeyCol()
		if c.scope.RandomRow() == TargetRow {
			return Term{Num: func(f *Frame) float64 {
				seed := a(f)
				return float64(f.R.Random(int64(f.Target[kc]), int64(seed)))
			}}, nil
		}
		return Term{Num: func(f *Frame) float64 {
			seed := a(f)
			return float64(f.R.Random(int64(f.Unit[kc]), int64(seed)))
		}}, nil
	case "abs":
		return Term{Num: func(f *Frame) float64 { return math.Abs(a(f)) }}, nil
	case "sqrt":
		return Term{Num: func(f *Frame) float64 { return math.Sqrt(a(f)) }}, nil
	case "floor":
		return Term{Num: func(f *Frame) float64 { return math.Floor(a(f)) }}, nil
	case "min":
		b := args[1]
		return Term{Num: func(f *Frame) float64 { return math.Min(a(f), b(f)) }}, nil
	default:
		b := args[1]
		return Term{Num: func(f *Frame) float64 { return math.Max(a(f), b(f)) }}, nil
	}
}

// Cond compiles a condition. And/Or short-circuit left to right like the
// interpreter; every operand is pure, so that only decides what is
// evaluated, never the verdict.
func (c *Compiler) Cond(cond ast.Cond) (Cond, error) {
	switch n := cond.(type) {
	case *ast.BoolLit:
		v := n.Val
		return func(*Frame) bool { return v }, nil
	case *ast.Not:
		x, err := c.Cond(n.X)
		if err != nil {
			return nil, err
		}
		return func(f *Frame) bool { return !x(f) }, nil
	case *ast.And:
		x, err := c.Cond(n.X)
		if err != nil {
			return nil, err
		}
		y, err := c.Cond(n.Y)
		if err != nil {
			return nil, err
		}
		return func(f *Frame) bool { return x(f) && y(f) }, nil
	case *ast.Or:
		x, err := c.Cond(n.X)
		if err != nil {
			return nil, err
		}
		y, err := c.Cond(n.Y)
		if err != nil {
			return nil, err
		}
		return func(f *Frame) bool { return x(f) || y(f) }, nil
	case *ast.Compare:
		x, err := c.Num(n.X)
		if err != nil {
			return nil, err
		}
		y, err := c.Num(n.Y)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case ast.Eq:
			return func(f *Frame) bool { return x(f) == y(f) }, nil
		case ast.Ne:
			return func(f *Frame) bool { return x(f) != y(f) }, nil
		case ast.Lt:
			return func(f *Frame) bool { return x(f) < y(f) }, nil
		case ast.Le:
			return func(f *Frame) bool { return x(f) <= y(f) }, nil
		case ast.Gt:
			return func(f *Frame) bool { return x(f) > y(f) }, nil
		default:
			return func(f *Frame) bool { return x(f) >= y(f) }, nil
		}
	}
	return nil, fmt.Errorf("expr: unknown condition node %T", cond)
}

// Conds compiles a list of conditions.
func (c *Compiler) Conds(conds []ast.Cond) ([]Cond, error) {
	out := make([]Cond, len(conds))
	for i, cond := range conds {
		cc, err := c.Cond(cond)
		if err != nil {
			return nil, err
		}
		out[i] = cc
	}
	return out, nil
}
