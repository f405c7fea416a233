// Package interp implements the denotational semantics of SGL (paper
// Section 4.3) as a direct tree-walking evaluator. It is the correctness
// oracle for the whole system: the compiled set-at-a-time plans and the
// indexed evaluator must produce byte-identical game states.
//
// The semantics functions:
//
//	[[(let v := t) f]]E,r(u) = [[f]]E,r(u, v: [[t]](u,E,r))
//	[[f1; f2]]E,r(u)        = [[f1]]E,r(u) ⊕ [[f2]]E,r(u)
//	[[if φ then f]]E,r(u)   = [[f]]E,r(u) if φ(u), else ∅
//	[[perform G]]E,r(u)     = [[g]]E,r(u)        (defined function g)
//	[[perform H]]E,r(u)     = h(u,E,r)           (built-in action h)
//
// and the whole tick, Eq. (6): tick(E, ρ) = main⊕(E) ⊕ E.
//
// Aggregate evaluation and action target selection are factored behind the
// Provider interface — the paper's "two 'pluggable' versions of our
// aggregate query evaluator". This package supplies the naive O(n)-scan
// Provider; package exec supplies the indexed one.
//
// This package stays a tree walker on purpose. The production evaluators
// (the plan executor, the indexed provider, the engine's deferred-area
// path) run closures compiled once by package expr; interp re-derives
// every value from the AST on every call, sharing no code with the
// compiler, which is what makes it an independent oracle. Its callers are
// the scan twins of the observation queries and the differential tests;
// the engine's Naive mode runs the compiled plan over all-scan probes and
// is held to this walker tick by tick.
package interp

import (
	"fmt"
	"math"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Empty-set aggregate results. SQL would return NULL; SGL has no NULL, so
// the identities below apply and scripts guard with count > 0, exactly as
// the paper's Figure 3 does.
const (
	// NoKey is returned by argmin/argmax/nearestkey over an empty set.
	NoKey = -1
)

// Value is a runtime SGL value: a number or a record of named numbers.
type Value struct {
	Rec    bool
	Num    float64
	Fields []string
	Vals   []float64
}

// NumVal wraps a float64.
func NumVal(v float64) Value { return Value{Num: v} }

// RecVal builds a record value.
func RecVal(fields []string, vals []float64) Value {
	return Value{Rec: true, Fields: fields, Vals: vals}
}

// Field returns the named field of a record value.
func (v Value) Field(name string) (float64, bool) {
	for i, f := range v.Fields {
		if f == name {
			return v.Vals[i], true
		}
	}
	return 0, false
}

// Provider evaluates aggregate functions and selects action targets for one
// clock tick. Implementations are bound to a specific environment table and
// tick random source at construction.
type Provider interface {
	// EvalAgg returns the output column values of the aggregate definition
	// evaluated for the given unit row with the given parameter values
	// (excluding the unit parameter).
	EvalAgg(def *ast.AggDef, unit []float64, args []float64) []float64

	// SelectTargets visits every environment row satisfying the action
	// definition's WHERE clause for the given unit and parameters.
	SelectTargets(def *ast.ActDef, unit []float64, args []float64, visit func(target []float64))
}

// Evaluator runs SGL scripts for one tick. Construct with New per tick.
type Evaluator struct {
	prog *sem.Program
	prov Provider
	env  *table.Table
	r    rng.TickSource
}

// New returns an evaluator for the given program over env, using prov for
// aggregate/target evaluation and r for Random.
func New(prog *sem.Program, env *table.Table, prov Provider, r rng.TickSource) *Evaluator {
	return &Evaluator{prog: prog, prov: prov, env: env, r: r}
}

// scope is the evaluation environment of an action function body.
type scope struct {
	unitName string
	unit     []float64
	vars     map[string]Value
}

func (s *scope) child() *scope {
	c := &scope{unitName: s.unitName, unit: s.unit, vars: make(map[string]Value, len(s.vars)+1)}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	return c
}

// RunUnit evaluates main for one unit, emitting every effect row the unit's
// action produces. Effect rows have the environment schema: const columns
// copied from the affected row, set effect columns from the action's SET
// clauses, all other effect columns at their fold identity. Kept exported
// as the walker oracle's per-unit entry for other packages' tests.
func (e *Evaluator) RunUnit(unit []float64, emit func(row []float64)) error {
	sc := &scope{unitName: e.prog.Main.Params[0], unit: unit, vars: map[string]Value{}}
	return e.runAction(e.prog.Main.Body, sc, emit)
}

// Tick computes the full semantics of Eq. (6): the ⊕-combination of every
// unit's effect table with the environment. The caller initializes the
// environment's effect columns (the game-mechanics defaults) beforehand.
func (e *Evaluator) Tick() (*table.Table, error) {
	effects := table.New(e.env.Schema, e.env.Len())
	for _, unit := range e.env.Rows {
		if err := e.RunUnit(unit, func(row []float64) { effects.Append(row) }); err != nil {
			return nil, err
		}
	}
	return effects.Union(e.env).Combine(), nil
}

func (e *Evaluator) runAction(a ast.Action, sc *scope, emit func([]float64)) error {
	switch n := a.(type) {
	case *ast.Nop:
		return nil
	case *ast.Seq:
		for _, sub := range n.Acts {
			if err := e.runAction(sub, sc, emit); err != nil {
				return err
			}
		}
		return nil
	case *ast.If:
		ok, err := e.evalCond(n.Cond, sc)
		if err != nil {
			return err
		}
		if ok {
			return e.runAction(n.Then, sc, emit)
		}
		if n.Else != nil {
			return e.runAction(n.Else, sc, emit)
		}
		return nil
	case *ast.Let:
		v, err := e.evalTerm(n.Value, sc)
		if err != nil {
			return err
		}
		inner := sc.child()
		inner.vars[n.Name] = v
		return e.runAction(n.Body, inner, emit)
	case *ast.Perform:
		return e.runPerform(n, sc, emit)
	default:
		return fmt.Errorf("interp: unknown action node %T", a)
	}
}

func (e *Evaluator) runPerform(n *ast.Perform, sc *scope, emit func([]float64)) error {
	target := e.prog.Performs[n]
	if target == nil {
		return fmt.Errorf("interp: unresolved perform %q at %s", n.Name, n.P)
	}
	if target.Func != nil {
		// Defined function: bind parameters and evaluate the body.
		inner := &scope{unitName: target.Func.Params[0], unit: sc.unit, vars: map[string]Value{}}
		for i, arg := range target.Args {
			v, err := e.evalTerm(arg, sc)
			if err != nil {
				return err
			}
			inner.vars[target.Func.Params[i+1]] = v
		}
		return e.runAction(target.Func.Body, inner, emit)
	}

	// Built-in action: evaluate expanded numeric arguments, select targets,
	// build one effect row per target.
	def := target.Act
	args := make([]float64, len(target.Args))
	for i, arg := range target.Args {
		v, err := e.evalTerm(arg, sc)
		if err != nil {
			return err
		}
		if v.Rec {
			return fmt.Errorf("interp: internal error: unexpanded record argument at %s", arg.Pos())
		}
		args[i] = v.Num
	}
	var applyErr error
	e.prov.SelectTargets(def, sc.unit, args, func(tgt []float64) {
		if applyErr != nil {
			return
		}
		row, err := e.BuildEffectRow(def, sc.unit, args, tgt)
		if err != nil {
			applyErr = err
			return
		}
		emit(row)
	})
	return applyErr
}

// BuildEffectRow materializes the effect row an action produces for one
// target: const columns from the target, SET columns evaluated, all other
// effect columns at their fold identities so ⊕ ignores them.
func (e *Evaluator) BuildEffectRow(def *ast.ActDef, unit, args, target []float64) ([]float64, error) {
	s := e.env.Schema
	row := make([]float64, s.NumAttrs())
	for _, c := range s.ConstCols() {
		row[c] = target[c]
	}
	for _, c := range s.EffectCols() {
		row[c] = s.Attr(c).Kind.Identity()
	}
	dl := DefParams(def)
	for _, set := range def.Sets {
		v, err := e.defTerm(set.Value, dl, unit, args, target)
		if err != nil {
			return nil, err
		}
		row[s.MustCol(set.Attr)] = v
	}
	return row, nil
}

// ---------------------------------------------------------------------------
// Script-context terms and conditions

// EvalTerm evaluates one action-function term for unit, with unitName
// naming the unit parameter and vars the let bindings in scope. It is the
// oracle's term-level entry point: the differential tests hold every
// compiled closure against it (no production path evaluates through it).
func (e *Evaluator) EvalTerm(t ast.Term, unitName string, unit []float64, vars map[string]Value) (Value, error) {
	return e.evalTerm(t, &scope{unitName: unitName, unit: unit, vars: vars})
}

// EvalCond is EvalTerm for conditions, kept as the same oracle's entry.
func (e *Evaluator) EvalCond(c ast.Cond, unitName string, unit []float64, vars map[string]Value) (bool, error) {
	return e.evalCond(c, &scope{unitName: unitName, unit: unit, vars: vars})
}

func (e *Evaluator) evalCond(c ast.Cond, sc *scope) (bool, error) {
	switch n := c.(type) {
	case *ast.BoolLit:
		return n.Val, nil
	case *ast.Not:
		v, err := e.evalCond(n.X, sc)
		return !v, err
	case *ast.And:
		x, err := e.evalCond(n.X, sc)
		if err != nil || !x {
			return false, err
		}
		return e.evalCond(n.Y, sc)
	case *ast.Or:
		x, err := e.evalCond(n.X, sc)
		if err != nil || x {
			return x, err
		}
		return e.evalCond(n.Y, sc)
	case *ast.Compare:
		x, err := e.evalTerm(n.X, sc)
		if err != nil {
			return false, err
		}
		y, err := e.evalTerm(n.Y, sc)
		if err != nil {
			return false, err
		}
		return compare(n.Op, x.Num, y.Num), nil
	default:
		return false, fmt.Errorf("interp: unknown condition node %T", c)
	}
}

func compare(op ast.CmpOp, x, y float64) bool {
	switch op {
	case ast.Eq:
		return x == y
	case ast.Ne:
		return x != y
	case ast.Lt:
		return x < y
	case ast.Le:
		return x <= y
	case ast.Gt:
		return x > y
	default:
		return x >= y
	}
}

func (e *Evaluator) evalTerm(t ast.Term, sc *scope) (Value, error) {
	switch n := t.(type) {
	case *ast.NumLit:
		return NumVal(n.Val), nil

	case *ast.ConstRef:
		return NumVal(e.prog.Consts[n.Name]), nil

	case *ast.VarRef:
		if n.Name == sc.unitName {
			return Value{}, fmt.Errorf("interp: unit value used as a term at %s", n.P)
		}
		v, ok := sc.vars[n.Name]
		if !ok {
			return Value{}, fmt.Errorf("interp: undefined name %q at %s", n.Name, n.P)
		}
		return v, nil

	case *ast.FieldRef:
		if n.Base == sc.unitName {
			return NumVal(sc.unit[e.prog.Schema.MustCol(n.Field)]), nil
		}
		v, ok := sc.vars[n.Base]
		if !ok {
			return Value{}, fmt.Errorf("interp: undefined name %q at %s", n.Base, n.P)
		}
		f, ok := v.Field(n.Field)
		if !ok {
			return Value{}, fmt.Errorf("interp: record %q has no field %q at %s", n.Base, n.Field, n.P)
		}
		return NumVal(f), nil

	case *ast.Field:
		v, err := e.evalTerm(n.X, sc)
		if err != nil {
			return Value{}, err
		}
		f, ok := v.Field(n.Field)
		if !ok {
			return Value{}, fmt.Errorf("interp: no field %q at %s", n.Field, n.P)
		}
		return NumVal(f), nil

	case *ast.Pair:
		x, err := e.evalTerm(n.X, sc)
		if err != nil {
			return Value{}, err
		}
		y, err := e.evalTerm(n.Y, sc)
		if err != nil {
			return Value{}, err
		}
		return RecVal([]string{"x", "y"}, []float64{x.Num, y.Num}), nil

	case *ast.Neg:
		v, err := e.evalTerm(n.X, sc)
		if err != nil {
			return Value{}, err
		}
		if v.Rec {
			out := make([]float64, len(v.Vals))
			for i, x := range v.Vals {
				out[i] = -x
			}
			return RecVal(v.Fields, out), nil
		}
		return NumVal(-v.Num), nil

	case *ast.Binary:
		x, err := e.evalTerm(n.X, sc)
		if err != nil {
			return Value{}, err
		}
		y, err := e.evalTerm(n.Y, sc)
		if err != nil {
			return Value{}, err
		}
		return binop(n.Op, x, y)

	case *ast.Call:
		return e.evalCall(n, sc)
	}
	return Value{}, fmt.Errorf("interp: unknown term node %T", t)
}

// leftNaN is the result of a + b or a * b when a is NaN: a's payload,
// quieted, exactly as the hardware returns it when a is its first source
// operand. IEEE-754 leaves the surviving payload of NaN ∘ NaN to the
// implementation; the hardware keeps its first source operand, and for a
// commutative operator the Go compiler chooses which operand that is —
// differently in different inlining contexts. SGL pins it: the left
// operand wins, whatever code is generated. (Subtraction and division
// are not commutative, so the hardware rule already is the left operand.)
func leftNaN(a float64) float64 {
	return math.Float64frombits(math.Float64bits(a) | 1<<51)
}

func binop(op ast.BinOp, x, y Value) (Value, error) {
	apply := func(a, b float64) float64 {
		switch op {
		case ast.Add:
			if a != a {
				return leftNaN(a)
			}
			return a + b
		case ast.Sub:
			return a - b
		case ast.Mul:
			if a != a {
				return leftNaN(a)
			}
			return a * b
		case ast.Div:
			return a / b
		default: // Mod: truncated like C, on the integer parts
			return math.Trunc(math.Mod(a, b))
		}
	}
	switch {
	case !x.Rec && !y.Rec:
		return NumVal(apply(x.Num, y.Num)), nil
	case x.Rec && y.Rec:
		out := make([]float64, len(x.Vals))
		for i := range out {
			out[i] = apply(x.Vals[i], y.Vals[i])
		}
		return RecVal(x.Fields, out), nil
	case x.Rec:
		out := make([]float64, len(x.Vals))
		for i := range out {
			out[i] = apply(x.Vals[i], y.Num)
		}
		return RecVal(x.Fields, out), nil
	default:
		out := make([]float64, len(y.Vals))
		for i := range out {
			out[i] = apply(x.Num, y.Vals[i])
		}
		return RecVal(y.Fields, out), nil
	}
}

func (e *Evaluator) evalCall(n *ast.Call, sc *scope) (Value, error) {
	if n.Name == "Random" || n.Name == "random" {
		seed, err := e.evalTerm(n.Args[0], sc)
		if err != nil {
			return Value{}, err
		}
		key := int64(sc.unit[e.prog.Schema.KeyCol()])
		return NumVal(float64(e.r.Random(key, int64(seed.Num)))), nil
	}
	switch n.Name {
	case "abs", "sqrt", "floor":
		v, err := e.evalTerm(n.Args[0], sc)
		if err != nil {
			return Value{}, err
		}
		switch n.Name {
		case "abs":
			return NumVal(math.Abs(v.Num)), nil
		case "sqrt":
			return NumVal(math.Sqrt(v.Num)), nil
		default:
			return NumVal(math.Floor(v.Num)), nil
		}
	case "min", "max":
		a, err := e.evalTerm(n.Args[0], sc)
		if err != nil {
			return Value{}, err
		}
		b, err := e.evalTerm(n.Args[1], sc)
		if err != nil {
			return Value{}, err
		}
		if n.Name == "min" {
			return NumVal(math.Min(a.Num, b.Num)), nil
		}
		return NumVal(math.Max(a.Num, b.Num)), nil
	}

	def := e.prog.AggCalls[n]
	if def == nil {
		return Value{}, fmt.Errorf("interp: unresolved call %q at %s", n.Name, n.P)
	}
	args := make([]float64, len(n.Args)-1)
	for i, a := range n.Args[1:] {
		v, err := e.evalTerm(a, sc)
		if err != nil {
			return Value{}, err
		}
		args[i] = v.Num
	}
	outs := e.prov.EvalAgg(def, sc.unit, args)
	if len(def.Outputs) == 1 {
		return NumVal(outs[0]), nil
	}
	fields := make([]string, len(def.Outputs))
	for i, o := range def.Outputs {
		fields[i] = o.As
	}
	return RecVal(fields, outs), nil
}

// ---------------------------------------------------------------------------
// Definition-context evaluation (shared with the providers)

// defTerm evaluates a term from an aggregate or action definition with
// u bound to unit, e bound to target, and the definition's parameters bound
// to args. Random(i) inside a definition is attributed to the *target* row,
// matching the paper's Random(e, 1) in Figure 5, so both evaluators roll
// the same dice no matter which unit triggered the effect.
func (e *Evaluator) defTerm(t ast.Term, def DefLike, unit, args, target []float64) (float64, error) {
	return evalDefTerm(t, def, unit, args, target, e.prog, e.r)
}

// DefLike abstracts AggDef and ActDef for shared definition evaluation.
type DefLike interface {
	ParamNames() []string
}

// ParamNames implementations live here so ast stays dependency-free.

type aggDefParams struct{ d *ast.AggDef }
type actDefParams struct{ d *ast.ActDef }

func (a aggDefParams) ParamNames() []string { return a.d.Params }
func (a actDefParams) ParamNames() []string { return a.d.Params }

// DefParams adapts a definition to defLike.
func DefParams(def any) DefLike {
	switch d := def.(type) {
	case *ast.AggDef:
		return aggDefParams{d}
	case *ast.ActDef:
		return actDefParams{d}
	default:
		panic("interp: DefParams on non-definition")
	}
}

// EvalDefTermWith evaluates a definition term with explicit program and
// random source by walking its AST. No provider outside this package
// calls it any more — exec and the engine evaluate definitions through
// closures compiled by package expr — so, like EvalDefCond, it is the
// oracle's entry point for the tests that hold those closures against
// the walker (TestCompiledMatchesInterpreted, FuzzCompileScript).
func EvalDefTermWith(t ast.Term, def DefLike, unit, args, target []float64, prog *sem.Program, r rng.TickSource) (float64, error) {
	return evalDefTerm(t, def, unit, args, target, prog, r)
}

func evalDefTerm(t ast.Term, def DefLike, unit, args, target []float64, prog *sem.Program, r rng.TickSource) (float64, error) {
	params := def.ParamNames()
	var eval func(t ast.Term) (float64, error)
	eval = func(t ast.Term) (float64, error) {
		switch n := t.(type) {
		case *ast.NumLit:
			return n.Val, nil
		case *ast.ConstRef:
			return prog.Consts[n.Name], nil
		case *ast.VarRef:
			for i, p := range params[1:] {
				if p == n.Name {
					return args[i], nil
				}
			}
			return 0, fmt.Errorf("interp: undefined name %q at %s", n.Name, n.P)
		case *ast.FieldRef:
			col := prog.Schema.MustCol(n.Field)
			switch n.Base {
			case "e":
				return target[col], nil
			case params[0]:
				return unit[col], nil
			}
			return 0, fmt.Errorf("interp: unknown row variable %q at %s", n.Base, n.P)
		case *ast.Neg:
			v, err := eval(n.X)
			return -v, err
		case *ast.Binary:
			x, err := eval(n.X)
			if err != nil {
				return 0, err
			}
			y, err := eval(n.Y)
			if err != nil {
				return 0, err
			}
			v, err := binop(n.Op, NumVal(x), NumVal(y))
			return v.Num, err
		case *ast.Call:
			switch n.Name {
			case "Random", "random":
				seed, err := eval(n.Args[0])
				if err != nil {
					return 0, err
				}
				key := int64(target[prog.Schema.KeyCol()])
				return float64(r.Random(key, int64(seed))), nil
			case "abs", "sqrt", "floor":
				v, err := eval(n.Args[0])
				if err != nil {
					return 0, err
				}
				switch n.Name {
				case "abs":
					return math.Abs(v), nil
				case "sqrt":
					return math.Sqrt(v), nil
				default:
					return math.Floor(v), nil
				}
			case "min", "max":
				a, err := eval(n.Args[0])
				if err != nil {
					return 0, err
				}
				b, err := eval(n.Args[1])
				if err != nil {
					return 0, err
				}
				if n.Name == "min" {
					return math.Min(a, b), nil
				}
				return math.Max(a, b), nil
			}
			return 0, fmt.Errorf("interp: call %q not allowed in definitions at %s", n.Name, n.P)
		}
		return 0, fmt.Errorf("interp: term %T not allowed in definitions", t)
	}
	return eval(t)
}

// EvalDefCond evaluates a definition WHERE clause for (unit, target, args)
// by walking its AST; a nil clause is true.
func EvalDefCond(c ast.Cond, def DefLike, unit, args, target []float64, prog *sem.Program, r rng.TickSource) (bool, error) {
	if c == nil {
		return true, nil
	}
	switch n := c.(type) {
	case *ast.BoolLit:
		return n.Val, nil
	case *ast.Not:
		v, err := EvalDefCond(n.X, def, unit, args, target, prog, r)
		return !v, err
	case *ast.And:
		x, err := EvalDefCond(n.X, def, unit, args, target, prog, r)
		if err != nil || !x {
			return false, err
		}
		return EvalDefCond(n.Y, def, unit, args, target, prog, r)
	case *ast.Or:
		x, err := EvalDefCond(n.X, def, unit, args, target, prog, r)
		if err != nil || x {
			return x, err
		}
		return EvalDefCond(n.Y, def, unit, args, target, prog, r)
	case *ast.Compare:
		x, err := evalDefTerm(n.X, def, unit, args, target, prog, r)
		if err != nil {
			return false, err
		}
		y, err := evalDefTerm(n.Y, def, unit, args, target, prog, r)
		if err != nil {
			return false, err
		}
		return compare(n.Op, x, y), nil
	}
	return false, fmt.Errorf("interp: unknown condition node %T", c)
}
