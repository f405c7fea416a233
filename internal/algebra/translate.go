package algebra

import (
	"fmt"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// Translate compiles a checked program's main function into a plan, applying
// the paper's SGL→algebra rules. Script-function performs are inlined (they
// are guaranteed non-recursive by sem), with callee let-bindings
// alpha-renamed to keep slots distinct.
func Translate(prog *sem.Program) (*Plan, error) {
	tr := &translator{prog: prog}
	base := &Base{}
	env := &Env{Unit: prog.Main.Params[0], Slots: map[string]int{}}
	root, err := tr.action(prog.Main.Body, base, env, nil)
	if err != nil {
		return nil, err
	}
	c, ok := root.(*Combine)
	if !ok {
		c = &Combine{Kids: []Node{root}}
	}
	return &Plan{Root: c, Slots: tr.nextSlot}, nil
}

type translator struct {
	prog     *sem.Program
	nextSlot int
	gensym   int
}

// subst maps inlined parameter names to caller-scope terms.
type subst map[string]ast.Term

func (tr *translator) newSlot() int {
	tr.nextSlot++
	return tr.nextSlot - 1
}

// action translates one action under the given probe-set input and scope.
func (tr *translator) action(a ast.Action, in Node, env *Env, sub subst) (Node, error) {
	switch n := a.(type) {
	case *ast.Nop:
		return &Combine{}, nil

	case *ast.Seq:
		// [[f1; f2]]⊕(E) = [[f1]]⊕(E) ⊕ [[f2]]⊕(E): all parts share `in`.
		c := &Combine{}
		for _, sub2 := range n.Acts {
			k, err := tr.action(sub2, in, env, sub)
			if err != nil {
				return nil, err
			}
			c.Kids = append(c.Kids, k)
		}
		return c, nil

	case *ast.If:
		// [[if φ then f]]⊕(E) = [[f]]⊕(σφ(E)); the else branch reads σ¬φ
		// of the *same* input node — the sharing that makes this a DAG.
		cond, err := tr.cond(n.Cond, sub)
		if err != nil {
			return nil, err
		}
		thenSel := &Select{In: in, Cond: cond, Env: env}
		thenEff, err := tr.action(n.Then, thenSel, env, sub)
		if err != nil {
			return nil, err
		}
		if n.Else == nil {
			return thenEff, nil
		}
		elseSel := &Select{In: in, Cond: &ast.Not{P: n.P, X: cond}, Env: env}
		elseEff, err := tr.action(n.Else, elseSel, env, sub)
		if err != nil {
			return nil, err
		}
		return &Combine{Kids: []Node{thenEff, elseEff}}, nil

	case *ast.Let:
		// [[(let A = a) f]]⊕(E) = [[f]]⊕(π*,a(*) AS A(E)).
		value, err := tr.term(n.Value, sub)
		if err != nil {
			return nil, err
		}
		slot := tr.newSlot()
		ext := &Extend{In: in, Name: n.Name, Slot: slot, Value: value, Env: env}
		return tr.action(n.Body, ext, env.child(n.Name, slot), sub)

	case *ast.Perform:
		return tr.perform(n, in, env, sub)
	}
	return nil, fmt.Errorf("algebra: unknown action node %T", a)
}

func (tr *translator) perform(n *ast.Perform, in Node, env *Env, sub subst) (Node, error) {
	target := tr.prog.Performs[n]
	if target == nil {
		return nil, fmt.Errorf("algebra: unresolved perform %q at %s", n.Name, n.P)
	}
	if target.Act != nil {
		args := make([]ast.Term, len(target.Args))
		for i, a := range target.Args {
			t, err := tr.term(a, sub)
			if err != nil {
				return nil, err
			}
			args[i] = t
		}
		return &Apply{In: in, Def: target.Act, Args: args, Env: env}, nil
	}

	// Script function: inline with parameter substitution. The callee's
	// unit parameter maps to the caller's unit; other parameters map to the
	// caller-scope argument terms; callee lets are alpha-renamed by the
	// translator's gensym inside tr.action (fresh slots are automatic, and
	// name collisions are impossible because the callee body only mentions
	// its own names, which we rewrite here).
	callee := target.Func
	inlineSub := subst{}
	for i, arg := range target.Args {
		t, err := tr.term(arg, sub)
		if err != nil {
			return nil, err
		}
		inlineSub[callee.Params[i+1]] = t
	}
	tr.gensym++
	body, err := tr.renameLets(callee.Body, fmt.Sprintf("·%d", tr.gensym))
	if err != nil {
		return nil, err
	}
	// The callee's unit parameter name must resolve to the caller's unit:
	// record it as a VarRef substitution handled structurally by term().
	inlineSub[callee.Params[0]] = &ast.VarRef{P: n.P, Name: env.Unit}
	return tr.action(body, in, env, inlineSub)
}

// term applies the inline substitution to a term, leaving everything else
// intact. Substituted terms were already rewritten for the caller scope, so
// they are not re-substituted (no capture).
func (tr *translator) term(t ast.Term, sub subst) (ast.Term, error) {
	if sub == nil {
		return t, nil
	}
	switch n := t.(type) {
	case *ast.NumLit, *ast.ConstRef:
		return t, nil
	case *ast.VarRef:
		if r, ok := sub[n.Name]; ok {
			return r, nil
		}
		return t, nil
	case *ast.FieldRef:
		if r, ok := sub[n.Base]; ok {
			if v, isVar := r.(*ast.VarRef); isVar {
				return &ast.FieldRef{P: n.P, Base: v.Name, Field: n.Field}, nil
			}
			return &ast.Field{P: n.P, X: r, Field: n.Field}, nil
		}
		return t, nil
	case *ast.Field:
		x, err := tr.term(n.X, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Field{P: n.P, X: x, Field: n.Field}, nil
	case *ast.Pair:
		x, err := tr.term(n.X, sub)
		if err != nil {
			return nil, err
		}
		y, err := tr.term(n.Y, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Pair{P: n.P, X: x, Y: y}, nil
	case *ast.Neg:
		x, err := tr.term(n.X, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Neg{P: n.P, X: x}, nil
	case *ast.Binary:
		x, err := tr.term(n.X, sub)
		if err != nil {
			return nil, err
		}
		y, err := tr.term(n.Y, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Binary{P: n.P, Op: n.Op, X: x, Y: y}, nil
	case *ast.Call:
		args := make([]ast.Term, len(n.Args))
		for i, a := range n.Args {
			t2, err := tr.term(a, sub)
			if err != nil {
				return nil, err
			}
			args[i] = t2
		}
		out := &ast.Call{P: n.P, Name: n.Name, Args: args}
		if def, ok := tr.prog.AggCalls[n]; ok {
			// Keep the resolution table consistent for the rewritten node.
			tr.prog.AggCalls[out] = def
		}
		return out, nil
	}
	return nil, fmt.Errorf("algebra: unknown term node %T", t)
}

func (tr *translator) cond(c ast.Cond, sub subst) (ast.Cond, error) {
	switch n := c.(type) {
	case *ast.BoolLit:
		return c, nil
	case *ast.Not:
		x, err := tr.cond(n.X, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Not{P: n.P, X: x}, nil
	case *ast.And:
		x, err := tr.cond(n.X, sub)
		if err != nil {
			return nil, err
		}
		y, err := tr.cond(n.Y, sub)
		if err != nil {
			return nil, err
		}
		return &ast.And{P: n.P, X: x, Y: y}, nil
	case *ast.Or:
		x, err := tr.cond(n.X, sub)
		if err != nil {
			return nil, err
		}
		y, err := tr.cond(n.Y, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Or{P: n.P, X: x, Y: y}, nil
	case *ast.Compare:
		x, err := tr.term(n.X, sub)
		if err != nil {
			return nil, err
		}
		y, err := tr.term(n.Y, sub)
		if err != nil {
			return nil, err
		}
		return &ast.Compare{P: n.P, Op: n.Op, X: x, Y: y}, nil
	}
	return nil, fmt.Errorf("algebra: unknown condition node %T", c)
}

// renameLets alpha-renames every let binding in an action body by appending
// a suffix, rewriting references consistently. Used when inlining so two
// inlinings of the same function get distinct names.
func (tr *translator) renameLets(a ast.Action, suffix string) (ast.Action, error) {
	return tr.renameAction(a, suffix, map[string]string{})
}

func (tr *translator) renameAction(a ast.Action, suffix string, renames map[string]string) (ast.Action, error) {
	switch n := a.(type) {
	case *ast.Nop:
		return n, nil
	case *ast.Seq:
		acts := make([]ast.Action, len(n.Acts))
		for i, sub := range n.Acts {
			r, err := tr.renameAction(sub, suffix, renames)
			if err != nil {
				return nil, err
			}
			acts[i] = r
		}
		return &ast.Seq{P: n.P, Acts: acts}, nil
	case *ast.If:
		cond := tr.renameCond(n.Cond, renames)
		then, err := tr.renameAction(n.Then, suffix, renames)
		if err != nil {
			return nil, err
		}
		out := &ast.If{P: n.P, Cond: cond, Then: then}
		if n.Else != nil {
			els, err := tr.renameAction(n.Else, suffix, renames)
			if err != nil {
				return nil, err
			}
			out.Else = els
		}
		return out, nil
	case *ast.Let:
		value := tr.renameTerm(n.Value, renames)
		inner := make(map[string]string, len(renames)+1)
		//sgl:unordered map copy; insertion order cannot reach the resulting map
		for k, v := range renames {
			inner[k] = v
		}
		inner[n.Name] = n.Name + suffix
		body, err := tr.renameAction(n.Body, suffix, inner)
		if err != nil {
			return nil, err
		}
		return &ast.Let{P: n.P, Name: n.Name + suffix, Value: value, Body: body}, nil
	case *ast.Perform:
		args := make([]ast.Term, len(n.Args))
		for i, t := range n.Args {
			args[i] = tr.renameTerm(t, renames)
		}
		np := &ast.Perform{P: n.P, Name: n.Name, Args: args}
		// The resolution table is keyed by node identity: register the
		// renamed perform with its target's argument terms renamed the
		// same way, so tr.perform can resolve it.
		if target := tr.prog.Performs[n]; target != nil {
			targs := make([]ast.Term, len(target.Args))
			for i, t := range target.Args {
				targs[i] = tr.renameTerm(t, renames)
			}
			tr.prog.Performs[np] = &sem.PerformTarget{Func: target.Func, Act: target.Act, Args: targs}
		}
		return np, nil
	}
	return nil, fmt.Errorf("algebra: unknown action node %T", a)
}

func (tr *translator) renameTerm(t ast.Term, renames map[string]string) ast.Term {
	switch n := t.(type) {
	case *ast.VarRef:
		if r, ok := renames[n.Name]; ok {
			return &ast.VarRef{P: n.P, Name: r}
		}
		return n
	case *ast.FieldRef:
		if r, ok := renames[n.Base]; ok {
			return &ast.FieldRef{P: n.P, Base: r, Field: n.Field}
		}
		return n
	case *ast.Field:
		return &ast.Field{P: n.P, X: tr.renameTerm(n.X, renames), Field: n.Field}
	case *ast.Pair:
		return &ast.Pair{P: n.P, X: tr.renameTerm(n.X, renames), Y: tr.renameTerm(n.Y, renames)}
	case *ast.Neg:
		return &ast.Neg{P: n.P, X: tr.renameTerm(n.X, renames)}
	case *ast.Binary:
		return &ast.Binary{P: n.P, Op: n.Op, X: tr.renameTerm(n.X, renames), Y: tr.renameTerm(n.Y, renames)}
	case *ast.Call:
		args := make([]ast.Term, len(n.Args))
		for i, a := range n.Args {
			args[i] = tr.renameTerm(a, renames)
		}
		out := &ast.Call{P: n.P, Name: n.Name, Args: args}
		if def, ok := tr.prog.AggCalls[n]; ok {
			tr.prog.AggCalls[out] = def
		}
		return out
	default:
		return t
	}
}

func (tr *translator) renameCond(c ast.Cond, renames map[string]string) ast.Cond {
	switch n := c.(type) {
	case *ast.Not:
		return &ast.Not{P: n.P, X: tr.renameCond(n.X, renames)}
	case *ast.And:
		return &ast.And{P: n.P, X: tr.renameCond(n.X, renames), Y: tr.renameCond(n.Y, renames)}
	case *ast.Or:
		return &ast.Or{P: n.P, X: tr.renameCond(n.X, renames), Y: tr.renameCond(n.Y, renames)}
	case *ast.Compare:
		return &ast.Compare{P: n.P, Op: n.Op, X: tr.renameTerm(n.X, renames), Y: tr.renameTerm(n.Y, renames)}
	default:
		return c
	}
}
