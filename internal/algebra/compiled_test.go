package algebra

import (
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/expr"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// arithmeticScript puts every operator and builtin, record arithmetic in
// all three broadcast shapes and a field select on each through both
// scopes, with operands the poisoned rows drive to zero and below. The
// second perform splits record arithmetic over a call into action
// arguments, so each argument runs one field's component closure.
const arithmeticScript = `
aggregate Odd(u, k) :=
  sum(e.health % k) as m, sum(abs(e.posx - u.posx) / (e.cooldown - u.cooldown)) as q,
  max(floor(sqrt(e.health)) * min(k, e.posy) - max(u.posy, 0 - e.posx)) as z
  over e where e.health % 3 <> u.cooldown % 0 - k or not (e.posx / u.posx <= 1) and true;
action Tag(u, a, b, c) :=
  on e where e.key = u.key and (e.health >= 0 - a or false)
  set damage = a % b + Random(c) % 7 - floor(e.health / b), movevect_x = 0 - (a * c), movevect_y = sqrt(a) + abs(b);
function main(u) {
  (let o = Odd(u, u.cooldown - 1))
  (let p = (u.posx, u.posy) - (o.m, o.q))
  (let q = p * 2 + (1, 0 - 1) / u.cooldown)
  (let s = 3 % q - (0 - p)) {
    if s.x <> s.y or o.z % (0 - 2) >= 0 - 1 then perform Tag(u, q, s.y % u.health);
    if o.m > 0 then perform Tag(u, q * (o.m, o.q) - -(p / Odd(u, 2).z), (3 % -s).x)
  }
}
`

func compileBattleSchema(t testing.TB, src string) *sem.Program {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sem.Check(script, game.Schema(), game.Consts())
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return prog
}

// poison are the values the random rows are salted with: both zeros, NaN,
// both infinities, negatives for %, magnitudes that overflow on multiply.
var poison = []float64{
	0, math.Copysign(0, -1), 1, -1, 2, -3, 7, 0.5, -2.5,
	math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 5e-324,
}

// poisonedValue draws one cell: a poison value, a small integer (so
// equalities and zero divisors actually occur), or an arbitrary float.
func poisonedValue(st *rng.Stream) float64 {
	switch st.Intn(4) {
	case 0:
		return poison[st.Intn(len(poison))]
	case 1:
		return st.Float64()*200 - 100
	default:
		return float64(st.Intn(9) - 3)
	}
}

func poisonedEnv(schema *table.Schema, seed uint64, n int) *table.Table {
	st := rng.NewStream(rng.New(seed), 11)
	env := table.New(schema, n)
	for i := 0; i < n; i++ {
		row := make([]float64, schema.NumAttrs())
		for c := range row {
			row[c] = poisonedValue(st)
		}
		row[schema.KeyCol()] = float64(i)
		env.Append(row)
	}
	return env
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameValue(a, b interp.Value) bool {
	if a.Rec != b.Rec || !sameBits(a.Num, b.Num) || len(a.Fields) != len(b.Fields) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Fields {
		if a.Fields[i] != b.Fields[i] {
			return false
		}
	}
	for i := range a.Vals {
		if !sameBits(a.Vals[i], b.Vals[i]) {
			return false
		}
	}
	return true
}

// checkCompiledDefs holds every term and condition of every definition,
// compiled in definition scope, against the interpreter's walker.
func checkCompiledDefs(t testing.TB, prog *sem.Program, env *table.Table, r rng.TickSource, seed uint64) {
	t.Helper()
	st := rng.NewStream(rng.New(seed), 12)
	check := func(name string, params []string, dl interp.DefLike, conds []ast.Cond, terms []ast.Term) {
		c := expr.New(prog, expr.Def{Params: params})
		condFns, err := c.Conds(conds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		termFns, err := c.Nums(terms)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f := &expr.Frame{R: r}
		args := make([]float64, len(params)-1)
		for _, unit := range env.Rows {
			for _, target := range env.Rows {
				for i := range args {
					args[i] = poisonedValue(st)
				}
				f.Unit, f.Args, f.Target = unit, args, target
				for i, cond := range conds {
					want, err := interp.EvalDefCond(cond, dl, unit, args, target, prog, r)
					if err != nil {
						t.Fatalf("%s: walker: %v", name, err)
					}
					if got := condFns[i](f); got != want {
						t.Fatalf("%s: condition %s: compiled %v, interpreted %v (u=%v args=%v e=%v)", name, cond, got, want, unit, args, target)
					}
				}
				for i, term := range terms {
					want, err := interp.EvalDefTermWith(term, dl, unit, args, target, prog, r)
					if err != nil {
						t.Fatalf("%s: walker: %v", name, err)
					}
					if got := termFns[i](f); !sameBits(got, want) {
						t.Fatalf("%s: term %s: compiled %v (%#x), interpreted %v (%#x) (u=%v args=%v e=%v)",
							name, term, got, math.Float64bits(got), want, math.Float64bits(want), unit, args, target)
					}
				}
			}
		}
	}
	whereParts := func(where ast.Cond) []ast.Cond {
		if where == nil {
			return nil
		}
		return append([]ast.Cond{where}, ast.Conjuncts(where)...)
	}
	for _, def := range prog.Script.Aggs {
		var terms []ast.Term
		for _, out := range def.Outputs {
			if out.Arg != nil {
				terms = append(terms, out.Arg)
			}
		}
		check(def.Name, def.Params, interp.DefParams(def), whereParts(def.Where), terms)
	}
	for _, def := range prog.Script.Acts {
		var terms []ast.Term
		for _, set := range def.Sets {
			terms = append(terms, set.Value)
		}
		check(def.Name, def.Params, interp.DefParams(def), whereParts(def.Where), terms)
	}
}

// checkCompiledPlan holds every Select condition (whole and conjunct by
// conjunct), Extend value and Apply argument of the plan, compiled in
// plan scope, against the interpreter's walker: both sides see the same
// let bindings (each side's own results, already proven equal) and
// answer aggregate calls with the same naive scans.
func checkCompiledPlan(t testing.TB, prog *sem.Program, plan *Plan, env *table.Table, r rng.TickSource) {
	t.Helper()
	prov := interp.NewNaive(prog, env, r)
	x := NewExecutor(prog, plan, env, prov, r)
	if x.codeErr != nil {
		t.Fatalf("plan does not compile: %v", x.codeErr)
	}
	ev := interp.New(prog, env, prov, r)
	nodes := plan.Nodes()
	for i, unit := range env.Rows {
		row := &Row{Unit: unit, Ext: make([]interp.Value, plan.Slots), ord: int32(i)}
		walked := make([]interp.Value, plan.Slots) // the walker's value of each slot
		bindings := func(env *Env) map[string]interp.Value {
			vars := map[string]interp.Value{}
			for s := env; s != nil; s = s.parent {
				for name, slot := range s.Slots {
					if _, inner := vars[name]; !inner {
						vars[name] = walked[slot]
					}
				}
			}
			return vars
		}
		for _, n := range nodes {
			switch v := n.(type) {
			case *Extend:
				want, err := ev.EvalTerm(v.Value, v.Env.Unit, unit, bindings(v.Env))
				if err != nil {
					t.Fatalf("walker: let %s: %v", v.Name, err)
				}
				got := x.code.ext[v].value.Value(x.at(row))
				if !sameValue(got, want) {
					t.Fatalf("let %s = %s: compiled %+v, interpreted %+v (u=%v)", v.Name, v.Value, got, want, unit)
				}
				row.Ext[v.Slot], walked[v.Slot] = got, want
			case *Select:
				vars := bindings(v.Env)
				want, err := ev.EvalCond(v.Cond, v.Env.Unit, unit, vars)
				if err != nil {
					t.Fatalf("walker: %s: %v", v.Cond, err)
				}
				conds := x.code.sel[v].conds
				if got := allHold(conds, x.at(row)); got != want {
					t.Fatalf("select %s: compiled %v, interpreted %v (u=%v)", v.Cond, got, want, unit)
				}
				for j, conj := range orderConjuncts(v.Cond) {
					want, err := ev.EvalCond(conj, v.Env.Unit, unit, vars)
					if err != nil {
						t.Fatalf("walker: %s: %v", conj, err)
					}
					if got := conds[j](x.at(row)); got != want {
						t.Fatalf("conjunct %s: compiled %v, interpreted %v (u=%v)", conj, got, want, unit)
					}
				}
			case *Apply:
				vars := bindings(v.Env)
				got := x.ApplyArgs(nil, v, row)
				for j, arg := range v.Args {
					want, err := ev.EvalTerm(arg, v.Env.Unit, unit, vars)
					if err != nil {
						t.Fatalf("walker: %s: %v", arg, err)
					}
					if want.Rec || !sameBits(got[j], want.Num) {
						t.Fatalf("argument %s of %s: compiled %v, interpreted %+v (u=%v)", arg, v.Def.Name, got[j], want, unit)
					}
				}
			}
		}
	}
}

// TestCompiledMatchesInterpreted is the compiler's oracle test: for every
// term and condition of every zoo script, the battle script, the
// benchmark's patrol script and an operator torture script, the compiled
// closure and the interpreter's tree walk agree bit for bit
// (Float64bits) on seeded random rows salted with NaN, ±Inf, −0,
// zero divisors and moduli, and negative % operands.
func TestCompiledMatchesInterpreted(t *testing.T) {
	scripts := []exec.ZooProgram{
		{Name: "battle", Src: game.Script},
		{Name: "patrol", Src: game.PatrolScript},
		{Name: "arithmetic", Src: arithmeticScript},
	}
	scripts = append(scripts, exec.Zoo...)
	for _, zp := range scripts {
		t.Run(zp.Name, func(t *testing.T) {
			prog := compileBattleSchema(t, zp.Src)
			for seed := uint64(1); seed <= 3; seed++ {
				env := poisonedEnv(prog.Schema, seed, 14)
				r := rng.New(seed).Tick(int64(seed))
				checkCompiledDefs(t, prog, env, r, seed)
				for _, opt := range []bool{false, true} {
					plan, err := Translate(prog)
					if err != nil {
						t.Fatal(err)
					}
					if opt {
						Optimize(plan)
					}
					checkCompiledPlan(t, prog, plan, env, r)
				}
			}
		})
	}
}
