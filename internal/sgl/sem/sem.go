// Package sem performs semantic analysis of parsed SGL scripts: name
// resolution, type checking, and the validations that make the paper's
// semantics well-defined (effect attributes only in SET clauses, the unit
// parameter only in unit position, acyclic perform chains so scripts are
// terminating functions, aggregate normal form).
//
// The type system is deliberately small. Terms are either numbers or
// records (ordered named tuples of numbers). Records arise from pair
// construction (x, y) — fields x and y — and from multi-output aggregate
// calls; a single-output aggregate call is a plain number. Arithmetic is
// defined on numbers, componentwise on same-shaped records, and broadcast
// between a record and a number, which is exactly enough to write the
// paper's (u.posx, u.posy) − Centroid(…) vector idiom. Comparisons are on
// numbers only.
//
// A record argument to a perform expands positionally into its fields, so
// `perform MoveInDirection(u, away_vector)` matches an action declared as
// MoveInDirection(u, x, y). The expansion is recorded in the Program so the
// interpreter and planner never re-derive it.
package sem

import (
	"fmt"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/token"
	"github.com/epicscale/sgl/internal/table"
)

// Error is a semantic error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Type describes an SGL value: a number, a record of named number fields,
// or the distinguished unit type of the current-unit parameter.
type Type struct {
	Unit   bool
	Rec    bool
	Fields []string
}

// Num is the scalar number type.
var Num = Type{}

// UnitType is the type of the current-unit parameter u.
var UnitType = Type{Unit: true}

// recordOf returns the record type with the given fields.
func recordOf(fields ...string) Type { return Type{Rec: true, Fields: fields} }

// Equal reports structural type equality.
func (t Type) Equal(o Type) bool {
	if t.Unit != o.Unit || t.Rec != o.Rec || len(t.Fields) != len(o.Fields) {
		return false
	}
	for i := range t.Fields {
		if t.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// String renders the type for error messages.
func (t Type) String() string {
	switch {
	case t.Unit:
		return "unit"
	case t.Rec:
		s := "record{"
		for i, f := range t.Fields {
			if i > 0 {
				s += ","
			}
			s += f
		}
		return s + "}"
	default:
		return "num"
	}
}

// PerformTarget is the resolution of one perform statement: exactly one of
// Func (a script-defined action function) or Act (a built-in action
// definition) is set. Args holds the argument terms after record expansion,
// excluding the leading unit argument.
type PerformTarget struct {
	Func *ast.FuncDef
	Act  *ast.ActDef
	Args []ast.Term
}

// Program is a semantically checked SGL script bound to an environment
// schema and a constant table. All later stages (interpreter, planner)
// work from a Program.
type Program struct {
	Script *ast.Script
	Schema *table.Schema
	Consts map[string]float64

	// Main is the entry-point action function.
	Main *ast.FuncDef

	// AggCalls resolves each aggregate Call term to its definition.
	AggCalls map[*ast.Call]*ast.AggDef

	// Performs resolves each perform statement.
	Performs map[*ast.Perform]*PerformTarget

	// FuncParamTypes records, for each script function, the parameter
	// types it was checked under (call-site polymorphic; keyed by func
	// then a signature string).
	funcSigs map[*ast.FuncDef]map[string]bool

	// cells holds one addressable slot per constant. Compiled expressions
	// (package expr) capture these addresses and read through them at call
	// time, so a SetConst reaches every closure compiled from this Program
	// without a name lookup per evaluation. Consts stays the table the
	// tree-walking interpreter and the checkpoint codec read; SetConst and
	// AdoptConsts keep the two in step.
	cells map[string]*float64
}

// newProgram is the shared constructor of Check and CheckQuery.
func newProgram(script *ast.Script, schema *table.Schema, consts map[string]float64) *Program {
	return &Program{
		Script:   script,
		Schema:   schema,
		Consts:   consts,
		AggCalls: make(map[*ast.Call]*ast.AggDef),
		Performs: make(map[*ast.Perform]*PerformTarget),
		funcSigs: make(map[*ast.FuncDef]map[string]bool),
		cells:    newCells(consts),
	}
}

func newCells(consts map[string]float64) map[string]*float64 {
	vals := make([]float64, 0, len(consts))
	cells := make(map[string]*float64, len(consts))
	for name, v := range consts {
		vals = append(vals, v)
		cells[name] = &vals[len(vals)-1]
	}
	return cells
}

// ConstCell returns the address compiled expressions read the named
// constant through. The address is stable for the Program's lifetime.
func (p *Program) ConstCell(name string) (*float64, bool) {
	c, ok := p.cells[name]
	return c, ok
}

// SetConst retunes one constant: the table entry and, when the name has a
// cell, the value every compiled expression reads.
func (p *Program) SetConst(name string, v float64) {
	p.Consts[name] = v
	if c, ok := p.cells[name]; ok {
		*c = v
	}
}

// AdoptConsts replaces the constant table wholesale (a restored
// checkpoint's table) and rewrites every cell from it. A name the new
// table lacks reads as 0, exactly like a missing map entry.
func (p *Program) AdoptConsts(consts map[string]float64) {
	p.Consts = consts
	for name, c := range p.cells {
		*c = consts[name]
	}
}

// WithPrivateConsts returns a shallow clone of p that owns its constant
// table and cells: retuning the clone leaves p, and every other clone,
// untouched. The AST, schema and resolution maps stay shared.
func (p *Program) WithPrivateConsts() *Program {
	c := *p
	c.Consts = make(map[string]float64, len(p.Consts))
	for k, v := range p.Consts {
		c.Consts[k] = v
	}
	c.cells = newCells(c.Consts)
	return &c
}

// aggResultType returns the type of a call to the given aggregate
// definition: Num for a single output, a record otherwise.
func aggResultType(def *ast.AggDef) Type {
	if len(def.Outputs) == 1 {
		return Num
	}
	fields := make([]string, len(def.Outputs))
	for i, o := range def.Outputs {
		fields[i] = o.As
	}
	return recordOf(fields...)
}

// scalarBuiltins are the pure numeric helper functions available in terms,
// with their arities. Random is handled separately (it is the ρ of the
// semantics, not a pure function).
var scalarBuiltins = map[string]int{
	"abs": 1, "sqrt": 1, "floor": 1, "min": 2, "max": 2,
}

// Check analyzes the script against the schema and constants. On success
// the returned Program carries all resolution tables; on failure the error
// is the first problem found, with its source position.
func Check(script *ast.Script, schema *table.Schema, consts map[string]float64) (*Program, error) {
	p := newProgram(script, schema, consts)
	c := &checker{p: p}

	// Duplicate declaration names (one namespace across all three kinds,
	// since perform and call sites do not distinguish them).
	seen := map[string]token.Pos{}
	declare := func(name string, pos token.Pos) error {
		if prev, dup := seen[name]; dup {
			return errf(pos, "duplicate declaration of %q (previous at %s)", name, prev)
		}
		seen[name] = pos
		return nil
	}
	for _, f := range script.Funcs {
		if err := declare(f.Name, f.P); err != nil {
			return nil, err
		}
		// Parameter well-formedness is checked even for functions that are
		// never performed, so a broken helper fails fast.
		names := map[string]bool{}
		for i, pname := range f.Params {
			if names[pname] {
				return nil, errf(paramAt(f.P, f.ParamPos, i), "duplicate parameter %q in %q", pname, f.Name)
			}
			names[pname] = true
		}
	}
	for _, a := range script.Aggs {
		if err := declare(a.Name, a.P); err != nil {
			return nil, err
		}
	}
	for _, a := range script.Acts {
		if err := declare(a.Name, a.P); err != nil {
			return nil, err
		}
	}

	for _, a := range script.Aggs {
		if err := c.checkAggDef(a); err != nil {
			return nil, err
		}
	}
	for _, a := range script.Acts {
		if err := c.checkActDef(a); err != nil {
			return nil, err
		}
	}

	main := script.Func("main")
	if main == nil {
		return nil, errf(token.Pos{Line: 1, Col: 1}, "script has no main function")
	}
	p.Main = main
	if len(main.Params) != 1 {
		return nil, errf(main.P, "main must take exactly the unit parameter, has %d parameters", len(main.Params))
	}
	if err := c.checkFunc(main, []Type{UnitType}, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// CheckQuery analyzes a script in query mode: an observation query over
// the live environment rather than a behavior that changes it. A query
// script declares aggregate definitions only — action definitions,
// action functions (and hence perform/SET effects) are rejected, as is
// Random, so a compiled query is a pure read of whatever snapshot it is
// later evaluated against. The returned Program has no Main; it exists
// to carry the checked definitions, the schema binding, and the constant
// table through the same evaluation machinery the engine uses.
func CheckQuery(script *ast.Script, schema *table.Schema, consts map[string]float64) (*Program, error) {
	if len(script.Funcs) > 0 {
		f := script.Funcs[0]
		return nil, errf(f.P, "query may not define action function %q: queries are read-only", f.Name)
	}
	if len(script.Acts) > 0 {
		a := script.Acts[0]
		return nil, errf(a.P, "query may not define action %q: queries have no effects", a.Name)
	}
	if len(script.Aggs) == 0 {
		return nil, errf(token.Pos{Line: 1, Col: 1}, "query declares no aggregate")
	}
	p := newProgram(script, schema, consts)
	c := &checker{p: p, query: true}
	seen := map[string]token.Pos{}
	for _, a := range script.Aggs {
		if prev, dup := seen[a.Name]; dup {
			return nil, errf(a.P, "duplicate declaration of %q (previous at %s)", a.Name, prev)
		}
		seen[a.Name] = a.P
		if err := c.checkAggDef(a); err != nil {
			return nil, err
		}
	}
	return p, nil
}

type checker struct {
	p *Program
	// query marks query-mode checking (CheckQuery): Random is rejected so
	// observation queries are pure reads of the snapshot.
	query bool
}

// env maps in-scope names (parameters and let-bindings) to types.
type env map[string]Type

func (e env) clone() env {
	c := make(env, len(e)+1)
	for k, v := range e {
		c[k] = v
	}
	return c
}

// termCtx says which row variables a term may reference.
type termCtx uint8

const (
	scriptCtx termCtx = iota // action functions: unit param, lets, aggregate calls
	defCtx                   // aggregate/action definitions: e and the unit param
)

// ---------------------------------------------------------------------------
// Definitions

// paramAt returns the recorded position of parameter i, falling back to the
// declaration position for ASTs built by hand without ParamPos.
func paramAt(def token.Pos, ppos []token.Pos, i int) token.Pos {
	if i < len(ppos) {
		return ppos[i]
	}
	return def
}

func (c *checker) defEnv(params []string, ppos []token.Pos, pos token.Pos) (env, string, error) {
	if len(params) == 0 {
		return nil, "", errf(pos, "definition needs at least the unit parameter")
	}
	ev := env{}
	unit := params[0]
	ev[unit] = UnitType
	for i, pname := range params[1:] {
		if _, dup := ev[pname]; dup {
			return nil, "", errf(paramAt(pos, ppos, i+1), "duplicate parameter %q", pname)
		}
		ev[pname] = Num
	}
	if _, clash := ev["e"]; clash {
		return nil, "", errf(pos, "parameter may not be named 'e'")
	}
	ev["e"] = UnitType // the scanned row behaves like a unit tuple
	return ev, unit, nil
}

func (c *checker) checkAggDef(def *ast.AggDef) error {
	ev, _, err := c.defEnv(def.Params, def.ParamPos, def.P)
	if err != nil {
		return err
	}
	names := map[string]bool{}
	for _, out := range def.Outputs {
		if names[out.As] {
			return errf(out.P, "duplicate output name %q", out.As)
		}
		names[out.As] = true
		needsArg := false
		switch out.Func {
		case ast.Sum, ast.Avg, ast.Stddev, ast.Min, ast.Max, ast.ArgMin, ast.ArgMax:
			needsArg = true
		case ast.Count, ast.NearestKey, ast.NearestDist, ast.NearestX, ast.NearestY:
		}
		if needsArg && out.Arg == nil {
			return errf(out.P, "%s requires an argument", out.Func)
		}
		if !needsArg && out.Arg != nil {
			return errf(out.P, "%s takes no argument", out.Func)
		}
		if out.Arg != nil {
			t, err := c.checkTerm(out.Arg, ev, defCtx)
			if err != nil {
				return err
			}
			if !t.Equal(Num) {
				return errf(out.Arg.Pos(), "aggregate argument must be a number, got %s", t)
			}
		}
		if out.Func == ast.NearestKey || out.Func == ast.NearestDist ||
			out.Func == ast.NearestX || out.Func == ast.NearestY {
			for _, attr := range []string{"posx", "posy"} {
				if _, ok := c.p.Schema.Col(attr); !ok {
					return errf(out.P, "%s requires schema attributes posx and posy", out.Func)
				}
			}
		}
	}
	if def.Where != nil {
		if err := c.checkCond(def.Where, ev, defCtx); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) checkActDef(def *ast.ActDef) error {
	ev, _, err := c.defEnv(def.Params, def.ParamPos, def.P)
	if err != nil {
		return err
	}
	if def.Where != nil {
		if err := c.checkCond(def.Where, ev, defCtx); err != nil {
			return err
		}
	}
	set := map[string]bool{}
	for _, s := range def.Sets {
		col, ok := c.p.Schema.Col(s.Attr)
		if !ok {
			return errf(s.P, "set clause targets unknown attribute %q", s.Attr)
		}
		if c.p.Schema.Attr(col).Kind == table.Const {
			return errf(s.P, "attribute %q is const and cannot be the subject of an effect", s.Attr)
		}
		if set[s.Attr] {
			return errf(s.P, "attribute %q set twice", s.Attr)
		}
		set[s.Attr] = true
		t, err := c.checkTerm(s.Value, ev, defCtx)
		if err != nil {
			return err
		}
		if !t.Equal(Num) {
			return errf(s.Value.Pos(), "set clause value must be a number, got %s", t)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Action functions

// sig builds a signature string for call-site polymorphic memoization.
func sig(types []Type) string {
	s := ""
	for _, t := range types {
		s += t.String() + ";"
	}
	return s
}

func (c *checker) checkFunc(f *ast.FuncDef, argTypes []Type, stack []*ast.FuncDef) error {
	for _, onStack := range stack {
		if onStack == f {
			return errf(f.P, "recursive perform chain through %q: SGL functions must be non-recursive", f.Name)
		}
	}
	if len(argTypes) != len(f.Params) {
		return errf(f.P, "%q called with %d arguments, declared with %d parameters", f.Name, len(argTypes), len(f.Params))
	}
	if !argTypes[0].Unit {
		return errf(f.P, "first argument of %q must be the current unit", f.Name)
	}
	s := sig(argTypes)
	if c.p.funcSigs[f] == nil {
		c.p.funcSigs[f] = map[string]bool{}
	}
	if c.p.funcSigs[f][s] {
		return nil // already checked under this signature
	}
	c.p.funcSigs[f][s] = true

	ev := env{}
	for i, pname := range f.Params {
		if _, dup := ev[pname]; dup {
			return errf(paramAt(f.P, f.ParamPos, i), "duplicate parameter %q", pname)
		}
		ev[pname] = argTypes[i]
	}
	return c.checkAction(f.Body, ev, append(stack, f))
}

func (c *checker) checkAction(a ast.Action, ev env, stack []*ast.FuncDef) error {
	switch n := a.(type) {
	case *ast.Nop:
		return nil
	case *ast.Seq:
		for _, sub := range n.Acts {
			if err := c.checkAction(sub, ev, stack); err != nil {
				return err
			}
		}
		return nil
	case *ast.If:
		if err := c.checkCond(n.Cond, ev, scriptCtx); err != nil {
			return err
		}
		if err := c.checkAction(n.Then, ev, stack); err != nil {
			return err
		}
		if n.Else != nil {
			return c.checkAction(n.Else, ev, stack)
		}
		return nil
	case *ast.Let:
		t, err := c.checkTerm(n.Value, ev, scriptCtx)
		if err != nil {
			return err
		}
		if t.Unit {
			return errf(n.P, "cannot bind the unit value to %q", n.Name)
		}
		if _, shadow := ev[n.Name]; shadow {
			return errf(n.P, "let %q shadows an existing binding", n.Name)
		}
		inner := ev.clone()
		inner[n.Name] = t
		return c.checkAction(n.Body, inner, stack)
	case *ast.Perform:
		return c.checkPerform(n, ev, stack)
	default:
		return errf(a.Pos(), "unknown action node %T", a)
	}
}

func (c *checker) checkPerform(n *ast.Perform, ev env, stack []*ast.FuncDef) error {
	if len(n.Args) == 0 {
		return errf(n.P, "perform %s needs at least the unit argument", n.Name)
	}
	// First argument must be the unit parameter.
	uref, ok := n.Args[0].(*ast.VarRef)
	if !ok || !ev[uref.Name].Unit {
		return errf(n.Args[0].Pos(), "first argument of perform %s must be the current unit", n.Name)
	}

	// Type the remaining arguments and expand records positionally.
	var expanded []ast.Term
	var expandedTypes []Type
	for _, arg := range n.Args[1:] {
		t, err := c.checkTerm(arg, ev, scriptCtx)
		if err != nil {
			return err
		}
		if t.Unit {
			return errf(arg.Pos(), "the unit may only be the first argument")
		}
		if t.Rec {
			for _, f := range t.Fields {
				expanded = append(expanded, &ast.Field{P: arg.Pos(), X: arg, Field: f})
				expandedTypes = append(expandedTypes, Num)
			}
		} else {
			expanded = append(expanded, arg)
			expandedTypes = append(expandedTypes, Num)
		}
	}

	if f := c.p.Script.Func(n.Name); f != nil {
		// Script function: check its body under these argument types.
		// Record arguments are passed unexpanded so the callee sees them
		// as records; numeric arity must still match.
		var callTypes []Type
		callTypes = append(callTypes, UnitType)
		var callArgs []ast.Term
		for _, arg := range n.Args[1:] {
			t, _ := c.checkTerm(arg, ev, scriptCtx)
			callTypes = append(callTypes, t)
			callArgs = append(callArgs, arg)
		}
		if err := c.checkFunc(f, callTypes, stack); err != nil {
			return err
		}
		c.p.Performs[n] = &PerformTarget{Func: f, Args: callArgs}
		return nil
	}
	if a := c.p.Script.Act(n.Name); a != nil {
		want := len(a.Params) - 1
		if len(expanded) != want {
			return errf(n.P, "perform %s: %d argument values after expansion, action takes %d", n.Name, len(expanded), want)
		}
		c.p.Performs[n] = &PerformTarget{Act: a, Args: expanded}
		return nil
	}
	return errf(n.P, "perform of undefined function %q", n.Name)
}

// ---------------------------------------------------------------------------
// Conditions and terms

func (c *checker) checkCond(cond ast.Cond, ev env, ctx termCtx) error {
	switch n := cond.(type) {
	case *ast.BoolLit:
		return nil
	case *ast.Not:
		return c.checkCond(n.X, ev, ctx)
	case *ast.And:
		if err := c.checkCond(n.X, ev, ctx); err != nil {
			return err
		}
		return c.checkCond(n.Y, ev, ctx)
	case *ast.Or:
		if err := c.checkCond(n.X, ev, ctx); err != nil {
			return err
		}
		return c.checkCond(n.Y, ev, ctx)
	case *ast.Compare:
		tx, err := c.checkTerm(n.X, ev, ctx)
		if err != nil {
			return err
		}
		ty, err := c.checkTerm(n.Y, ev, ctx)
		if err != nil {
			return err
		}
		if !tx.Equal(Num) || !ty.Equal(Num) {
			return errf(n.P, "comparisons are defined on numbers, got %s %s %s", tx, n.Op, ty)
		}
		return nil
	default:
		return errf(cond.Pos(), "unknown condition node %T", cond)
	}
}

func (c *checker) checkTerm(t ast.Term, ev env, ctx termCtx) (Type, error) {
	switch n := t.(type) {
	case *ast.NumLit:
		return Num, nil

	case *ast.ConstRef:
		if _, ok := c.p.Consts[n.Name]; !ok {
			return Num, errf(n.P, "unknown game constant %s", n.Name)
		}
		return Num, nil

	case *ast.VarRef:
		ty, ok := ev[n.Name]
		if !ok {
			return Num, errf(n.P, "undefined name %q", n.Name)
		}
		return ty, nil

	case *ast.FieldRef:
		base, ok := ev[n.Base]
		if !ok {
			return Num, errf(n.P, "undefined name %q", n.Base)
		}
		if base.Unit {
			if _, ok := c.p.Schema.Col(n.Field); !ok {
				return Num, errf(n.P, "schema has no attribute %q", n.Field)
			}
			return Num, nil
		}
		if base.Rec {
			for _, f := range base.Fields {
				if f == n.Field {
					return Num, nil
				}
			}
			return Num, errf(n.P, "record %q has no field %q", n.Base, n.Field)
		}
		return Num, errf(n.P, "%q is a number and has no fields", n.Base)

	case *ast.Field:
		base, err := c.checkTerm(n.X, ev, ctx)
		if err != nil {
			return Num, err
		}
		if !base.Rec {
			return Num, errf(n.P, "field access on non-record value of type %s", base)
		}
		for _, f := range base.Fields {
			if f == n.Field {
				return Num, nil
			}
		}
		return Num, errf(n.P, "record has no field %q", n.Field)

	case *ast.Pair:
		for _, sub := range []ast.Term{n.X, n.Y} {
			ty, err := c.checkTerm(sub, ev, ctx)
			if err != nil {
				return Num, err
			}
			if !ty.Equal(Num) {
				return Num, errf(sub.Pos(), "pair components must be numbers, got %s", ty)
			}
		}
		return recordOf("x", "y"), nil

	case *ast.Neg:
		ty, err := c.checkTerm(n.X, ev, ctx)
		if err != nil {
			return Num, err
		}
		if ty.Unit {
			return Num, errf(n.P, "cannot negate the unit value")
		}
		return ty, nil

	case *ast.Binary:
		tx, err := c.checkTerm(n.X, ev, ctx)
		if err != nil {
			return Num, err
		}
		ty, err := c.checkTerm(n.Y, ev, ctx)
		if err != nil {
			return Num, err
		}
		if tx.Unit || ty.Unit {
			return Num, errf(n.P, "arithmetic on the unit value")
		}
		switch {
		case !tx.Rec && !ty.Rec:
			return Num, nil
		case tx.Rec && ty.Rec:
			if !tx.Equal(ty) {
				return Num, errf(n.P, "record shapes differ: %s vs %s", tx, ty)
			}
			return tx, nil
		case tx.Rec:
			return tx, nil // record ∘ scalar broadcasts
		default:
			return ty, nil // scalar ∘ record broadcasts
		}

	case *ast.Call:
		return c.checkCall(n, ev, ctx)
	}
	return Num, errf(t.Pos(), "unknown term node %T", t)
}

func (c *checker) checkCall(n *ast.Call, ev env, ctx termCtx) (Type, error) {
	if n.Name == "Random" || n.Name == "random" {
		if c.query {
			return Num, errf(n.P, "Random is not allowed in queries: observation queries are deterministic reads")
		}
		if len(n.Args) != 1 {
			return Num, errf(n.P, "Random takes exactly one seed argument")
		}
		ty, err := c.checkTerm(n.Args[0], ev, ctx)
		if err != nil {
			return Num, err
		}
		if !ty.Equal(Num) {
			return Num, errf(n.P, "Random seed must be a number")
		}
		return Num, nil
	}
	if arity, ok := scalarBuiltins[n.Name]; ok {
		if len(n.Args) != arity {
			return Num, errf(n.P, "%s takes %d argument(s), got %d", n.Name, arity, len(n.Args))
		}
		for _, a := range n.Args {
			ty, err := c.checkTerm(a, ev, ctx)
			if err != nil {
				return Num, err
			}
			if !ty.Equal(Num) {
				return Num, errf(a.Pos(), "%s arguments must be numbers, got %s", n.Name, ty)
			}
		}
		return Num, nil
	}

	// Aggregate function call: only valid in action-function terms, first
	// argument the unit, remaining arguments numbers.
	def := c.p.Script.Agg(n.Name)
	if def == nil {
		return Num, errf(n.P, "call of undefined function %q", n.Name)
	}
	if ctx == defCtx {
		return Num, errf(n.P, "aggregate %q cannot be called inside a definition", n.Name)
	}
	if len(n.Args) == 0 {
		return Num, errf(n.P, "aggregate %s needs at least the unit argument", n.Name)
	}
	if uref, ok := n.Args[0].(*ast.VarRef); !ok || !ev[uref.Name].Unit {
		return Num, errf(n.Args[0].Pos(), "first argument of %s must be the current unit", n.Name)
	}
	if len(n.Args) != len(def.Params) {
		return Num, errf(n.P, "%s takes %d arguments, got %d", n.Name, len(def.Params), len(n.Args))
	}
	for _, a := range n.Args[1:] {
		ty, err := c.checkTerm(a, ev, ctx)
		if err != nil {
			return Num, err
		}
		if !ty.Equal(Num) {
			return Num, errf(a.Pos(), "aggregate arguments must be numbers, got %s", ty)
		}
	}
	c.p.AggCalls[n] = def
	return aggResultType(def), nil
}
