// Plan compilation: everything about a plan that is fixed for the plan's
// lifetime, resolved once instead of once per row.
//
// A plan's terms and conditions are compiled to closures (package expr)
// over the plan scope: `u.attr` is a column index into the row, a let
// name is an extension slot (with a record field its offset), an
// aggregate call is a call site of its call class with its arguments
// compiled in turn, an action's SET clauses are (column, closure) pairs.
// Alongside, every Apply input chain is laid out as its streaming stage
// list — guard pushdown, greedy conjunct order, shared-Select memo
// ordinals — so an Executor built per tick only binds rows, a provider
// and a random source. Constants are read through the program's cells
// when a closure runs (see package expr), which is what keeps one
// compiled plan valid across OpTune.
package algebra

import (
	"fmt"
	"math"
	"strings"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// planCode is the compiled form of one plan for one program.
type planCode struct {
	prog    *sem.Program
	applies []*Apply
	apply   map[*Apply][]expr.Num // argument terms
	acts    []*actCode            // by ActDef.Ord (act looks one up)
	sel     map[*Select]*selCode
	ext     map[*Extend]*extCode
	chains  map[Node][]stage // per Apply input: the streaming stage list
	classes []*callClass     // aggregate call classes, by id
	memos   int              // Selects shared between Applies
	// effect is the effect-row template: fold identities in the effect
	// columns, zero elsewhere.
	effect []float64
}

// actCode is an action definition's SET clauses compiled in definition
// scope, in declaration order.
type actCode struct {
	def  *ast.ActDef
	cols []int
	sets []expr.Num
}

// act returns def's compiled SET clauses: at its ordinal, one bounds
// check and one pointer compare, or — a definition whose ordinal another
// holds — by a scan.
func (code *planCode) act(def *ast.ActDef) *actCode {
	if o := def.Ord; o >= 0 && o < len(code.acts) {
		if ac := code.acts[o]; ac != nil && ac.def == def {
			return ac
		}
	}
	for _, ac := range code.acts {
		if ac != nil && ac.def == def {
			return ac
		}
	}
	return nil
}

// selCode is a Select's condition as greedy-ordered compiled conjuncts.
type selCode struct {
	conds []expr.Cond
	memo  int // shared verdict memo ordinal; -1 when one chain reads it
}

// extCode is an Extend's compiled value plus the aggregate call sites
// inside it in evaluation order (inner calls before the calls whose
// arguments contain them), which is the order batching needs.
type extCode struct {
	value expr.Term
	sites []*aggSite
}

// aggSite is one aggregate call in a plan term.
type aggSite struct {
	class *callClass
	args  []expr.Num
}

// callClass is every call of one definition with the same arguments in
// canonical form (classKey: let names resolved to slots, literals by
// their bits). A call's value is a pure function of the frozen snapshot
// and its row (see stream.go), so every site of a class answers a row
// with the same bits, and the class's per-row memo (Executor.memo) probes
// it once per row however many sites reach it.
type callClass struct {
	id    int
	def   *ast.AggDef
	sites int // call sites in the plan
}

// planCompiler carries the state of one plan compilation: the static type
// of every extension slot compiled so far and the call classes met so far.
type planCompiler struct {
	code      *planCode
	slotKnown []bool
	slotRec   [][]string // record field names; nil for a number slot
	classes   map[string]*callClass
	sites     []*aggSite // call sites of the term being compiled
}

// scope is the plan scope of one Env: the unit parameter names the row,
// every other name is a let slot.
type scope struct {
	pc  *planCompiler
	env *Env
}

func (s scope) Row(base string) expr.Row {
	if base == s.env.Unit {
		return expr.UnitRow
	}
	return expr.NoRow
}

func (s scope) Var(name string) (expr.Term, bool) {
	slot, ok := s.env.Lookup(name)
	if !ok || !s.pc.slotKnown[slot] {
		return expr.Term{}, false
	}
	if fields := s.pc.slotRec[slot]; fields != nil {
		return expr.Record(fields, func(f *expr.Frame) []float64 { return f.Ext[slot].Vals }), true
	}
	return expr.Term{Num: func(f *expr.Frame) float64 { return f.Ext[slot].Num }}, true
}

func (scope) RandomRow() expr.Row { return expr.UnitRow }

func (s scope) Call(n *ast.Call, args []expr.Num) (expr.Term, error) {
	def := s.pc.code.prog.AggCalls[n]
	if def == nil {
		return expr.Term{}, fmt.Errorf("algebra: unresolved call %q at %s", n.Name, n.P)
	}
	key := s.classKey(n)
	class := s.pc.classes[key]
	if class == nil {
		class = &callClass{id: len(s.pc.code.classes), def: def}
		s.pc.classes[key] = class
		s.pc.code.classes = append(s.pc.code.classes, class)
	}
	class.sites++
	site := &aggSite{class: class, args: args}
	s.pc.sites = append(s.pc.sites, site)
	if len(def.Outputs) == 1 {
		return expr.Term{Num: func(f *expr.Frame) float64 {
			return f.Host.(*Executor).probe(site, f)[0]
		}}, nil
	}
	fields := make([]string, len(def.Outputs))
	for i, o := range def.Outputs {
		fields[i] = o.As
	}
	return expr.Record(fields, func(f *expr.Frame) []float64 {
		return f.Host.(*Executor).probe(site, f)
	}), nil
}

// classKey is a call's canonical form in this scope: its printed form
// (the definition and the structure of its arguments), then, in order of
// appearance, every literal's bits (the printer rounds them) and the slot
// every let name is bound to here (equal names may be different lets).
// The unit is the scope's unit parameter, one name across the plan. Two
// calls with one key evaluate to the same bits on every row.
func (s scope) classKey(n *ast.Call) string {
	var b strings.Builder
	fmt.Fprint(&b, n)
	slot := func(name string) {
		if slot, ok := s.env.Lookup(name); ok {
			fmt.Fprintf(&b, "|$%d", slot)
		}
	}
	ast.Inspect(n, func(x any) bool {
		switch t := x.(type) {
		case *ast.NumLit:
			fmt.Fprintf(&b, "|%x", math.Float64bits(t.Val))
		case *ast.VarRef:
			slot(t.Name)
		case *ast.FieldRef:
			slot(t.Base)
		}
		return true
	})
	return b.String()
}

// compilePlan compiles p for prog. Nodes are visited inputs first, so an
// Extend's slot type is known before any term that reads the slot.
func compilePlan(prog *sem.Program, p *Plan) (*planCode, error) {
	applies, err := p.Applies()
	if err != nil {
		return nil, err
	}
	code := &planCode{
		prog:    prog,
		applies: applies,
		apply:   map[*Apply][]expr.Num{},
		acts:    make([]*actCode, len(prog.Script.Acts)),
		sel:     map[*Select]*selCode{},
		ext:     map[*Extend]*extCode{},
		chains:  map[Node][]stage{},
		effect:  make([]float64, prog.Schema.NumAttrs()),
	}
	for _, c := range prog.Schema.EffectCols() {
		code.effect[c] = prog.Schema.Attr(c).Kind.Identity()
	}
	pc := &planCompiler{
		code:      code,
		slotKnown: make([]bool, p.Slots),
		slotRec:   make([][]string, p.Slots),
		classes:   map[string]*callClass{},
	}
	for _, n := range p.Nodes() {
		switch v := n.(type) {
		case *Select:
			sc := &selCode{memo: -1}
			if sc.conds, err = expr.New(prog, scope{pc, v.Env}).Conds(orderConjuncts(v.Cond)); err != nil {
				return nil, err
			}
			code.sel[v] = sc
		case *Extend:
			pc.sites = nil
			value, err := expr.New(prog, scope{pc, v.Env}).Term(v.Value)
			if err != nil {
				return nil, err
			}
			code.ext[v] = &extCode{value: value, sites: pc.sites}
			pc.slotKnown[v.Slot], pc.slotRec[v.Slot] = true, value.Fields
		case *Apply:
			if code.apply[v], err = expr.New(prog, scope{pc, v.Env}).Nums(v.Args); err != nil {
				return nil, err
			}
			if code.act(v.Def) == nil {
				ac := &actCode{def: v.Def}
				c := expr.New(prog, expr.Def{Params: v.Def.Params})
				for _, set := range v.Def.Sets {
					col, ok := prog.Schema.Col(set.Attr)
					if !ok {
						return nil, fmt.Errorf("algebra: set clause targets unknown attribute %q", set.Attr)
					}
					fn, err := c.Num(set.Value)
					if err != nil {
						return nil, err
					}
					ac.cols, ac.sets = append(ac.cols, col), append(ac.sets, fn)
				}
				if o := v.Def.Ord; o >= 0 && o < len(code.acts) && code.acts[o] == nil {
					code.acts[o] = ac
				} else {
					code.acts = append(code.acts, ac)
				}
			}
		}
	}

	// Stage lists, one per distinct Apply input. A Select more than one
	// Apply pulls rows through — by two chains, or by one chain feeding two
	// performs — gets a verdict memo so its condition runs once per row
	// across all of them.
	shares := map[*Select]int{}
	for _, ap := range applies {
		stages, ok := code.chains[ap.In]
		if !ok {
			if stages, err = chainStages(ap.In); err != nil {
				return nil, err
			}
			code.chains[ap.In] = stages
		}
		for i := range stages {
			if stages[i].sel != nil {
				shares[stages[i].sel]++
			}
		}
	}
	for _, ap := range applies {
		stages := code.chains[ap.In]
		for i := range stages {
			st := &stages[i]
			if st.sel == nil {
				st.code = code.ext[st.ext]
				continue
			}
			sc := code.sel[st.sel]
			if shares[st.sel] > 1 && sc.memo < 0 {
				sc.memo = code.memos
				code.memos++
			}
			st.conds, st.memo = sc.conds, sc.memo
		}
	}
	return code, nil
}

// compiled returns the plan's code for prog, compiling it on first use.
// Optimize invalidates it. The lock makes first use from concurrent shard
// executors safe; after that it is one uncontended acquisition per
// executor.
func (p *Plan) compiled(prog *sem.Program) (*planCode, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.code == nil || p.code.prog != prog {
		code, err := compilePlan(prog, p)
		if err != nil {
			return nil, err
		}
		p.code = code
	}
	return p.code, nil
}
