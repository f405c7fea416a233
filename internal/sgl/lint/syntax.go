package lint

import (
	"math"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/token"
)

// checkDuplicates reports SGL002 for redeclared names (one namespace
// across functions, aggregates and actions — call sites don't distinguish
// them) and SGL003 for duplicate parameters, at the parameter's own
// position.
func (l *linter) checkDuplicates(script *ast.Script) {
	seen := map[string]token.Pos{}
	decl := func(name string, pos token.Pos) {
		if prev, dup := seen[name]; dup {
			l.report(CodeDupDecl, pos, "duplicate declaration of %q (previous at %s)", name, prev)
			return
		}
		seen[name] = pos
	}
	params := func(owner string, names []string, ppos []token.Pos, ownerPos token.Pos) {
		have := map[string]bool{}
		for i, p := range names {
			pos := ownerPos
			if i < len(ppos) {
				pos = ppos[i]
			}
			if have[p] {
				l.report(CodeDupParam, pos, "duplicate parameter %q in %s", p, owner)
				continue
			}
			have[p] = true
		}
	}
	for _, f := range script.Funcs {
		decl(f.Name, f.P)
		params("function "+f.Name, f.Params, f.ParamPos, f.P)
	}
	for _, a := range script.Aggs {
		decl(a.Name, a.P)
		params("aggregate "+a.Name, a.Params, a.ParamPos, a.P)
	}
	for _, a := range script.Acts {
		decl(a.Name, a.P)
		params("action "+a.Name, a.Params, a.ParamPos, a.P)
	}
}

// checkShadows reports SGL004 where a let rebinds a name already in scope
// (a parameter or an outer let) — sem rejects these too; lint gives them
// a code and keeps going.
func (l *linter) checkShadows(script *ast.Script) {
	for _, f := range script.Funcs {
		scope := map[string]bool{}
		for _, p := range f.Params {
			scope[p] = true
		}
		l.shadowWalk(f.Body, scope)
	}
}

func (l *linter) shadowWalk(a ast.Action, scope map[string]bool) {
	switch n := a.(type) {
	case *ast.Let:
		if scope[n.Name] {
			l.report(CodeShadow, n.P, "let %q shadows an existing binding", n.Name)
		}
		inner := make(map[string]bool, len(scope)+1)
		for k := range scope {
			inner[k] = true
		}
		inner[n.Name] = true
		l.shadowWalk(n.Body, inner)
	case *ast.Seq:
		for _, s := range n.Acts {
			l.shadowWalk(s, scope)
		}
	case *ast.If:
		l.shadowWalk(n.Then, scope)
		if n.Else != nil {
			l.shadowWalk(n.Else, scope)
		}
	}
}

// checkDivZero reports SGL005 for division or modulus whose divisor folds
// to constant zero. The runtime semantics are total (IEEE ±Inf/NaN, pinned
// by the executor tests), so this compiles — which is exactly why it
// deserves a diagnostic.
func (l *linter) checkDivZero(script *ast.Script) {
	ast.Inspect(script, func(n any) bool {
		b, ok := n.(*ast.Binary)
		if !ok || (b.Op != ast.Div && b.Op != ast.Mod) {
			return true
		}
		if v, ok := l.fold(b.Y); ok && v == 0 {
			op := "division"
			if b.Op == ast.Mod {
				op = "modulus"
			}
			l.report(CodeDivZero, b.Y.Pos(), "%s by constant zero (evaluates to %s at runtime)", op, divZeroResult(b.Op))
		}
		return true
	})
}

func divZeroResult(op ast.BinOp) string {
	if op == ast.Mod {
		return "NaN"
	}
	return "±Inf or NaN"
}

// fold evaluates a term to a constant if its value is decidable from the
// source alone: literals, game constants, arithmetic over those, and the
// pure scalar builtins. The arithmetic is the same IEEE-754 the executor
// uses, so folded comparisons decide exactly what the runtime would.
func (l *linter) fold(t ast.Term) (float64, bool) {
	switch n := t.(type) {
	case *ast.NumLit:
		return n.Val, true
	case *ast.ConstRef:
		v, ok := l.opts.Consts[n.Name]
		return v, ok
	case *ast.Neg:
		v, ok := l.fold(n.X)
		return -v, ok
	case *ast.Binary:
		x, okx := l.fold(n.X)
		y, oky := l.fold(n.Y)
		if !okx || !oky {
			return 0, false
		}
		switch n.Op {
		case ast.Add:
			return x + y, true
		case ast.Sub:
			return x - y, true
		case ast.Mul:
			return x * y, true
		case ast.Div:
			return x / y, true
		case ast.Mod:
			return expr.Mod(x, y), true
		}
		return 0, false
	case *ast.Call:
		args := make([]float64, len(n.Args))
		for i, a := range n.Args {
			v, ok := l.fold(a)
			if !ok {
				return 0, false
			}
			args[i] = v
		}
		switch n.Name {
		case "abs":
			if len(args) == 1 {
				return math.Abs(args[0]), true
			}
		case "sqrt":
			if len(args) == 1 {
				return math.Sqrt(args[0]), true
			}
		case "floor":
			if len(args) == 1 {
				return math.Floor(args[0]), true
			}
		case "min":
			if len(args) == 2 {
				return math.Min(args[0], args[1]), true
			}
		case "max":
			if len(args) == 2 {
				return math.Max(args[0], args[1]), true
			}
		}
		return 0, false
	}
	return 0, false
}
