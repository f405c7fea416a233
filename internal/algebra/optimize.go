package algebra

import (
	"github.com/epicscale/sgl/internal/sgl/ast"
)

// Optimize rewrites the plan in place using the algebraic laws of paper
// Section 5.2, and returns it. Two rules reproduce the Example 5.1 /
// Figure 6 (a)→(b) transformation:
//
//   - Rule A (dead-extension skipping): if a consumer of an Extend — and
//     everything downstream of that consumer — never reads the extended
//     column, the consumer is rewired past the Extend. This is the paper's
//     "in the right branch of the expression, agg2 is not used and can be
//     removed".
//
//   - Rule B (lazy extension): an Extend whose only consumer is a Select
//     that does not read the extended column is pushed above the Select, so
//     the (potentially expensive) aggregate is evaluated only for the rows
//     that survive the filter. This is the paper's "the aggregate index for
//     agg2 will only have to be computed for the units that satisfy
//     condition φ1".
//
// The ⊕-elimination rules (8)–(10) and act⊕(R) ⊕ R = act⊕(R) of Figure 6
// (c)→(d) are realized structurally by the executor: effects accumulate
// into a table keyed by unit and are ⊕-combined with E exactly once (see
// rules.go for the table-level identities and their property tests).
//
// Optimize is idempotent; running it twice yields the same plan.
func Optimize(p *Plan) *Plan {
	p.mu.Lock()
	p.code = nil // compiled against the topology about to change
	p.mu.Unlock()
	for {
		changed := false
		if applyRuleA(p) {
			changed = true
		}
		if applyRuleB(p) {
			changed = true
		}
		if !changed {
			return p
		}
	}
}

// consumers builds the reverse adjacency of the plan DAG.
func consumers(p *Plan) map[Node][]Node {
	out := map[Node][]Node{}
	for _, n := range p.Nodes() {
		for _, in := range n.Inputs() {
			out[in] = append(out[in], n)
		}
	}
	return out
}

// usedSlots computes, for every node, the set of extension slots read by
// the node itself or by anything downstream of it (its consumers,
// transitively). Nodes() is postorder (inputs first), so iterating it in
// reverse visits consumers before producers.
func usedSlots(p *Plan) map[Node]map[int]bool {
	cons := consumers(p)
	used := map[Node]map[int]bool{}
	nodes := p.Nodes()
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		set := map[int]bool{}
		for _, c := range cons[n] {
			//sgl:unordered set union; insertion order cannot reach the resulting set
			for s := range used[c] {
				set[s] = true
			}
		}
		for _, s := range ownSlotRefs(n) {
			set[s] = true
		}
		used[n] = set
	}
	return used
}

// ownSlotRefs returns the slots referenced directly by a node's own terms.
func ownSlotRefs(n Node) []int {
	var out []int
	switch v := n.(type) {
	case *Select:
		collectSlots(v.Cond, v.Env, &out)
	case *Extend:
		collectSlots(v.Value, v.Env, &out)
	case *Apply:
		for _, a := range v.Args {
			collectSlots(a, v.Env, &out)
		}
	}
	return out
}

// collectSlots appends the slots a term or condition references: its
// variables and the bases of its attribute references other than the
// unit's, in the order they appear.
func collectSlots(n any, env *Env, out *[]int) {
	ast.Inspect(n, func(x any) bool {
		var name string
		switch r := x.(type) {
		case *ast.VarRef:
			name = r.Name
		case *ast.FieldRef:
			if r.Base == env.Unit {
				return true
			}
			name = r.Base
		default:
			return true
		}
		if s, ok := env.Lookup(name); ok {
			*out = append(*out, s)
		}
		return true
	})
}

// setInput rewires a consumer's input edge from old to new.
func setInput(consumer, old, new Node) {
	switch v := consumer.(type) {
	case *Select:
		if v.In == old {
			v.In = new
		}
	case *Extend:
		if v.In == old {
			v.In = new
		}
	case *Apply:
		if v.In == old {
			v.In = new
		}
	case *Combine:
		for i, k := range v.Kids {
			if k == old {
				v.Kids[i] = new
			}
		}
	}
}

// applyRuleA rewires consumers past Extends whose column they never read.
func applyRuleA(p *Plan) bool {
	used := usedSlots(p)
	changed := false
	for _, n := range p.Nodes() {
		for _, in := range n.Inputs() {
			ext, ok := in.(*Extend)
			if !ok {
				continue
			}
			if !used[n][ext.Slot] {
				setInput(n, ext, ext.In)
				changed = true
			}
		}
	}
	return changed
}

// applyRuleB pushes an Extend above a Select when the Select is its only
// consumer and the selection condition does not read the extension.
func applyRuleB(p *Plan) bool {
	cons := consumers(p)
	//sgl:unordered the rewrite system is terminating and locally confluent, so the fixpoint plan is the same whichever candidate fires first
	for ext, extConsumers := range cons {
		e, ok := ext.(*Extend)
		if !ok || len(extConsumers) != 1 {
			continue
		}
		sel, ok := extConsumers[0].(*Select)
		if !ok || sel.In != e {
			continue
		}
		var condSlots []int
		collectSlots(sel.Cond, sel.Env, &condSlots)
		reads := false
		for _, s := range condSlots {
			if s == e.Slot {
				reads = true
				break
			}
		}
		if reads {
			continue
		}
		// Swap: …→X→E→S→consumers(S) becomes …→X→S→E→consumers(S).
		for _, c := range cons[sel] {
			setInput(c, sel, e)
		}
		sel.In = e.In
		e.In = sel
		return true // topology changed; restart with fresh consumer map
	}
	return false
}
