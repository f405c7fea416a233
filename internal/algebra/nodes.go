// Package algebra implements the paper's bag algebra (Section 5.1) and the
// algebraic optimization of SGL scripts (Section 5.2).
//
// An SGL action function translates into a plan DAG over these operators:
//
//	Base              the environment relation E
//	Select            σφ — filters the probe set (from if-conditions)
//	Extend            π*,t AS v — adds a let-bound column, including the
//	                  aggregate-valued extensions π*,agg(*) the optimizer
//	                  cares about
//	Apply             act⊕ — a built-in action applied to every row of its
//	                  probe set, producing effect rows
//	Combine           ⊕ of the effect tables of its children
//
// The translation rules are the paper's:
//
//	[[f1; f2]]⊕(E)         = [[f1]]⊕(E) ⊕ [[f2]]⊕(E)
//	[[if φ then f]]⊕(E)    = [[f]]⊕(σφ(E))
//	[[(let A = a) f]]⊕(E)  = [[f]]⊕(π*,a(*) AS A(E))
//
// Because if-branches share their input node, the plan is a DAG and every
// shared prefix — in particular every aggregate extension — is evaluated
// once for the whole unit set: this is the set-at-a-time processing of
// Section 5.2 ("while the SGL script suggested an evaluation one unit at a
// time, the query plan employs set-at-a-time processing").
package algebra

import (
	"fmt"
	"strings"
	"sync"

	"github.com/epicscale/sgl/internal/sgl/ast"
)

// Env maps in-scope let names to extension slots. Slots are global to a
// plan: every Extend owns a distinct slot, so skipping an Extend on a
// branch that never reads it (rule A of the optimizer) cannot corrupt
// resolution elsewhere.
type Env struct {
	Unit   string         // name of the unit parameter in this scope
	Slots  map[string]int // let name → slot
	parent *Env
}

// Lookup resolves a let name to its slot.
func (e *Env) Lookup(name string) (int, bool) {
	for s := e; s != nil; s = s.parent {
		if i, ok := s.Slots[name]; ok {
			return i, ok
		}
	}
	return 0, false
}

func (e *Env) child(name string, slot int) *Env {
	return &Env{Unit: e.Unit, Slots: map[string]int{name: slot}, parent: e}
}

// Node is a plan operator. Base/Select/Extend produce unit sets; Apply and
// Combine produce effect tables.
type Node interface {
	node()
	// Inputs returns the producer nodes this node consumes.
	Inputs() []Node
}

// Base is the environment relation E.
type Base struct{}

// Select is σφ over its input's unit set.
type Select struct {
	In   Node
	Cond ast.Cond
	Env  *Env
}

// Extend is π*, Value AS Name: it evaluates Value for every input row and
// stores it in Slot. When Value contains an aggregate call this is the
// π*,agg(*) operator whose evaluation strategy (scan vs index probe)
// distinguishes the two engines.
type Extend struct {
	In    Node
	Name  string
	Slot  int
	Value ast.Term
	Env   *Env
}

// Apply is act⊕: the built-in action Def applied for every row of the probe
// set, with the (record-expanded) argument terms Args.
type Apply struct {
	In   Node
	Def  *ast.ActDef
	Args []ast.Term
	Env  *Env
}

// Combine is the ⊕ of its children's effect tables.
type Combine struct {
	Kids []Node
}

func (*Base) node()    {}
func (*Select) node()  {}
func (*Extend) node()  {}
func (*Apply) node()   {}
func (*Combine) node() {}

// Inputs implementations.
func (*Base) Inputs() []Node      { return nil }
func (n *Select) Inputs() []Node  { return []Node{n.In} }
func (n *Extend) Inputs() []Node  { return []Node{n.In} }
func (n *Apply) Inputs() []Node   { return []Node{n.In} }
func (n *Combine) Inputs() []Node { return n.Kids }

// Plan is a translated (and possibly optimized) SGL script: Root is the
// Combine of all effect-producing branches, and the full tick is
// Root's effects ⊕ E (paper Eq. 6).
type Plan struct {
	Root   *Combine
	Slots  int // number of extension slots
	labels []string

	// code is the plan compiled for execution (compile.go), built by the
	// first executor bound to the plan and dropped by Optimize.
	mu   sync.Mutex
	code *planCode
}

// Applies returns the plan's Apply nodes in deterministic walk order — the
// order the engine's decision phase visits them. Every external walker
// (serial or sharded) must process Apply nodes in exactly this order so
// that effect folds happen in the same floating-point association on every
// run. It errors on a malformed plan whose effect tree holds anything but
// Combine and Apply nodes.
func (p *Plan) Applies() ([]*Apply, error) {
	var out []*Apply
	var walk func(n Node) error
	walk = func(n Node) error {
		switch v := n.(type) {
		case *Combine:
			for _, k := range v.Kids {
				if err := walk(k); err != nil {
					return err
				}
			}
			return nil
		case *Apply:
			out = append(out, v)
			return nil
		default:
			return fmt.Errorf("algebra: unexpected plan node %T in effect tree", n)
		}
	}
	if err := walk(p.Root); err != nil {
		return nil, err
	}
	return out, nil
}

// SlotName returns the let name that owns a slot (for Explain).
func (p *Plan) SlotName(slot int) string {
	if slot < len(p.labels) {
		return p.labels[slot]
	}
	return fmt.Sprintf("slot%d", slot)
}

// Explain renders the plan as an indented operator tree. Shared nodes (the
// DAG edges that realize set-at-a-time sharing) are printed once and then
// referenced as [#k].
func (p *Plan) Explain() string {
	var b strings.Builder
	ids := map[Node]int{}
	next := 1
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if id, seen := ids[n]; seen {
			fmt.Fprintf(&b, "%s[#%d]\n", indent, id)
			return
		}
		switch v := n.(type) {
		case *Base:
			fmt.Fprintf(&b, "%sE\n", indent)
		case *Select:
			ids[n] = next
			fmt.Fprintf(&b, "%sσ[#%d] %s\n", indent, next, v.Cond)
			next++
			walk(v.In, depth+1)
		case *Extend:
			ids[n] = next
			fmt.Fprintf(&b, "%sπ[#%d] *, %s AS %s\n", indent, next, v.Value, v.Name)
			next++
			walk(v.In, depth+1)
		case *Apply:
			ids[n] = next
			args := make([]string, len(v.Args))
			for i, a := range v.Args {
				args[i] = a.String()
			}
			fmt.Fprintf(&b, "%sact⊕[#%d] %s(%s)\n", indent, next, v.Def.Name, strings.Join(args, ", "))
			next++
			walk(v.In, depth+1)
		case *Combine:
			fmt.Fprintf(&b, "%s⊕\n", indent)
			for _, k := range v.Kids {
				walk(k, depth+1)
			}
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// Nodes returns every node of the plan in a deterministic postorder (inputs
// before consumers), each exactly once.
func (p *Plan) Nodes() []Node {
	var out []Node
	seen := map[Node]bool{}
	var walk func(n Node)
	walk = func(n Node) {
		if seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs() {
			walk(in)
		}
		out = append(out, n)
	}
	walk(p.Root)
	return out
}

// CountNodes returns how many operators of each type the plan holds; used
// by optimizer tests to assert structural effects.
func (p *Plan) CountNodes() map[string]int {
	counts := map[string]int{}
	for _, n := range p.Nodes() {
		switch n.(type) {
		case *Base:
			counts["base"]++
		case *Select:
			counts["select"]++
		case *Extend:
			counts["extend"]++
		case *Apply:
			counts["apply"]++
		case *Combine:
			counts["combine"]++
		}
	}
	return counts
}
