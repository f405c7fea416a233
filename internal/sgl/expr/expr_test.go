package expr

import (
	"math"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

func lit(v float64) *ast.NumLit { return &ast.NumLit{Val: v} }

func testProgram(t *testing.T, consts map[string]float64) *sem.Program {
	t.Helper()
	schema := table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "hp", Kind: table.Const},
		table.Attr{Name: "damage", Kind: table.Sum},
	)
	script, err := parser.Parse(`
aggregate A(u, k) := sum(e.hp * _SCALE + k) as s over e where e.hp >= u.hp - _SCALE;
action Tag(u) := on e where e.key = u.key set damage = _SCALE;
function main(u) { perform Tag(u) }`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(script, schema, consts)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// Arithmetic is total: no operand combination is an error, poisoned
// floats are ordinary values.
func TestArithmeticIEEE(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		op   ast.BinOp
		x, y float64
		want float64
	}{
		{"pos-div-zero", ast.Div, 1, 0, inf},
		{"neg-div-zero", ast.Div, -1, 0, -inf},
		{"zero-div-zero", ast.Div, 0, 0, math.NaN()},
		{"mod-by-zero", ast.Mod, 5, 0, math.NaN()},
		{"mod-truncates", ast.Mod, -7.5, 2, -1},
		{"mod-negative-divisor", ast.Mod, 7, -3, 1},
		{"inf-minus-inf", ast.Sub, inf, inf, math.NaN()},
		{"inf-plus-neginf", ast.Add, inf, -inf, math.NaN()},
		{"nan-add", ast.Add, math.NaN(), 1, math.NaN()},
		{"nan-mul", ast.Mul, math.NaN(), 0, math.NaN()},
		{"inf-mul-zero", ast.Mul, inf, 0, math.NaN()},
		{"inf-propagates", ast.Add, inf, 1, inf},
		{"negative-zero-sum", ast.Add, math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)},
		{"zero-sum", ast.Add, math.Copysign(0, -1), 0, 0},
	}
	c := New(testProgram(t, map[string]float64{"_SCALE": 1}), Def{Params: []string{"u"}})
	for _, tc := range cases {
		fn, err := c.Num(&ast.Binary{Op: tc.op, X: lit(tc.x), Y: lit(tc.y)})
		if err != nil {
			t.Fatal(err)
		}
		got := fn(&Frame{})
		if math.Float64bits(got) != math.Float64bits(tc.want) && !(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s: %v %v %v = %v, want %v", tc.name, tc.x, tc.op, tc.y, got, tc.want)
		}
	}
}

// When both operands are NaN the first one's payload survives, for every
// operator and in both operand orders — the rule add and mul exist to pin.
func TestFirstNaNWins(t *testing.T) {
	a := math.Float64frombits(0xfff8000000000000) // what 0/0 produces on amd64
	b := math.Float64frombits(0x7ff8000000000001) // math.NaN(), what x % 0 produces
	c := New(testProgram(t, map[string]float64{"_SCALE": 1}), Def{Params: []string{"u"}})
	for _, op := range []ast.BinOp{ast.Add, ast.Sub, ast.Mul, ast.Div} {
		for _, pair := range [][2]float64{{a, b}, {b, a}} {
			fn, err := c.Num(&ast.Binary{Op: op, X: lit(pair[0]), Y: lit(pair[1])})
			if err != nil {
				t.Fatal(err)
			}
			if got := fn(&Frame{}); math.Float64bits(got) != math.Float64bits(pair[0]) {
				t.Errorf("%#x %v %#x = %#x, want the first operand", math.Float64bits(pair[0]), op, math.Float64bits(pair[1]), math.Float64bits(got))
			}
		}
	}
}

// Mod's int64 fast path must return the walker's bits — interp computes
// a % b as math.Trunc(math.Mod(a, b)) in its own words — on both sides of
// every boundary the fast path draws: integers against fractions, ±0 and
// the sign of a zero remainder, magnitudes at and past 2^53, 2^63, zero
// and infinite divisors, NaN. Random integer and fractional draws sweep
// the interior.
func TestModMatchesWalker(t *testing.T) {
	prog := testProgram(t, map[string]float64{"_SCALE": 1})
	dl := interp.DefParams(prog.Script.Aggs[0])
	r := rng.New(1).Tick(0)
	walker := func(a, b float64) float64 {
		v, err := interp.EvalDefTermWith(&ast.Binary{Op: ast.Mod, X: lit(a), Y: lit(b)}, dl, nil, nil, nil, prog, r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	negZero, inf, p53 := math.Copysign(0, -1), math.Inf(1), float64(1<<53)
	specials := []float64{0, negZero, 1, -1, 2, -2, 3, -3, 5.5, -5.5, 7, -7, 0.5, -0.5, 1e-300,
		p53, -p53, p53 - 1, -(p53 - 1), p53 + 2, -(p53 + 2), 1 << 62, 1 << 63, -(1 << 63), 1e300,
		inf, -inf, math.NaN()}
	check := func(a, b float64) {
		t.Helper()
		if got, want := Mod(a, b), walker(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Mod(%v, %v) = %v (%#x), walker %v (%#x)", a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range specials {
		for _, b := range specials {
			check(a, b)
		}
	}
	st := rng.NewStream(rng.New(99), 1)
	for i := 0; i < 20000; i++ {
		a := math.Floor(st.Float64()*2e6) - 1e6
		b := math.Floor(st.Float64()*200) - 100
		check(a, b)
		check(a+0.25, b)
		check(a*float64(1<<33), b+0.5)
	}
	if got := Mod(-4, 2); !math.Signbit(got) || got != 0 {
		t.Fatalf("Mod(-4, 2) = %v, want -0 (the dividend's sign)", got)
	}
	if got := Mod(5.5, 2); got != 1 {
		t.Fatalf("Mod(5.5, 2) = %v, want 1 (truncated)", got)
	}
}

func TestNaNComparisons(t *testing.T) {
	c := New(testProgram(t, map[string]float64{"_SCALE": 1}), Def{Params: []string{"u"}})
	cases := []struct {
		op   ast.CmpOp
		want bool
	}{
		{ast.Eq, false}, {ast.Lt, false}, {ast.Le, false},
		{ast.Gt, false}, {ast.Ge, false}, {ast.Ne, true},
	}
	for _, tc := range cases {
		for _, y := range []float64{1, math.NaN()} {
			fn, err := c.Cond(&ast.Compare{Op: tc.op, X: lit(math.NaN()), Y: lit(y)})
			if err != nil {
				t.Fatal(err)
			}
			if got := fn(&Frame{}); got != tc.want {
				t.Errorf("NaN %v %v = %v, want %v", tc.op, y, got, tc.want)
			}
		}
	}
}

// A constant is read when the closure runs, through the Program it was
// compiled from: SetConst on that Program is seen by closures compiled
// before it, and a clone with private constants is not.
func TestConstantsReadAtCallTime(t *testing.T) {
	prog := testProgram(t, map[string]float64{"_SCALE": 2})
	clone := prog.WithPrivateConsts()
	def := prog.Script.Aggs[0]
	arg := def.Outputs[0].Arg
	fn, err := New(prog, Def{Params: def.Params}).Num(arg)
	if err != nil {
		t.Fatal(err)
	}
	cloneFn, err := New(clone, Def{Params: def.Params}).Num(arg)
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{Target: []float64{0, 10, 0}, Args: []float64{1}}
	if got := fn(f); got != 21 {
		t.Fatalf("hp*_SCALE+k = %v, want 21", got)
	}
	prog.SetConst("_SCALE", 3)
	if got := fn(f); got != 31 {
		t.Fatalf("after SetConst(3): %v, want 31 — the constant was baked into the closure", got)
	}
	if got := cloneFn(f); got != 21 {
		t.Fatalf("clone saw the original's retune: %v, want 21", got)
	}
	clone.AdoptConsts(map[string]float64{"_SCALE": 5})
	if got := cloneFn(f); got != 51 {
		t.Fatalf("after AdoptConsts(5): %v, want 51", got)
	}
	if got := fn(f); got != 31 {
		t.Fatalf("original saw the clone's table: %v, want 31", got)
	}
}

// What sem would have rejected is a compile error, not a panic at
// evaluation time.
func TestCompileRejectsUncheckedTerms(t *testing.T) {
	c := New(testProgram(t, map[string]float64{"_SCALE": 1}), Def{Params: []string{"u", "k"}})
	pair := &ast.Pair{X: lit(1), Y: lit(2)}
	bad := []struct {
		term ast.Term
		want string
	}{
		{&ast.VarRef{Name: "nope"}, "unresolved name"},
		{&ast.FieldRef{Base: "e", Field: "nope"}, "no attribute"},
		{&ast.FieldRef{Base: "k", Field: "x"}, "non-record"},
		{&ast.Field{X: pair, Field: "z"}, "no field"},
		{&ast.ConstRef{Name: "_NOPE"}, "unknown game constant"},
		{&ast.Call{Name: "A", Args: []ast.Term{&ast.VarRef{Name: "u"}, lit(1)}}, "not allowed in definitions"},
		{&ast.Call{Name: "abs", Args: []ast.Term{lit(1), lit(2)}}, "takes 1 argument"},
		{&ast.Binary{Op: ast.Add, X: pair, Y: &ast.VarRef{Name: "nope"}}, "unresolved name"},
	}
	for _, tc := range bad {
		if _, err := c.Term(tc.term); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.term, err, tc.want)
		}
	}
	if _, err := c.Num(pair); err == nil {
		t.Error("a record compiled where a number is required")
	}
	// Records compile in definition scope too: the compiler is one, the
	// scopes only resolve names.
	sel, err := c.Num(&ast.Field{X: &ast.Binary{Op: ast.Mul, X: pair, Y: &ast.VarRef{Name: "k"}}, Field: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if got := sel(&Frame{Args: []float64{4}}); got != 8 {
		t.Fatalf("((1,2)*k).y with k=4 = %v, want 8", got)
	}
}

// ---------------------------------------------------------------------------
// A whole script through the compiler, in both scopes, against the walker.

const everythingScript = `
aggregate Two(u, k) := count(*) as n, sum(e.hp - k) as s over e where e.hp >= k or not (e.key <> u.key);
aggregate One(u) := max(e.hp) over e;
action Tag(u, a, b) :=
  on e where e.key = u.key and e.hp > 0 - _SCALE
  set damage = a % b + Random(a) % 7 + min(e.hp, floor(sqrt(abs(b)))) * max(a, _SCALE) / -e.hp;
function main(u) {
  (let a = u.hp * 2 - _SCALE / 3 + 7 % u.hp)
  (let p = (a, -u.hp))
  (let q = p + (1, 2))
  (let r = q * a)
  (let s = 10 / -r)
  (let t = Two(u, a % 3))
  (let o = One(u))
  (let b = abs(s.x) + sqrt(q.y) + floor(a) + min(a, o) + max(t.n, t.s) + Random(3) % 5 + (p - 1).y
     + (-(p * q)).x + ((a, 1) / -q).y + (3 % (p - (u.hp, 0 - a))).x + (One(u) * Two(u, a)).s) {
    if (a > 1 and not (b <= 2)) or p.x = q.x or a <> b or a < b or a >= b or false then perform Tag(u, (s - q) * -(1, a))
  }
}
`

// slotScope is a plan-like scope for the test: lets are slots of
// Frame.Ext, aggregate calls go straight to a naive provider.
type slotScope struct {
	prog   *sem.Program
	unit   string
	slot   map[string]int
	fields map[string][]string
	prov   interp.Provider
}

func (s *slotScope) Row(base string) Row {
	if base == s.unit {
		return UnitRow
	}
	return NoRow
}

func (s *slotScope) Var(name string) (Term, bool) {
	i, ok := s.slot[name]
	if !ok {
		return Term{}, false
	}
	if fields := s.fields[name]; fields != nil {
		return Record(fields, func(f *Frame) []float64 { return f.Ext[i].Vals }), true
	}
	return Term{Num: func(f *Frame) float64 { return f.Ext[i].Num }}, true
}

func (s *slotScope) RandomRow() Row { return UnitRow }

func (s *slotScope) Call(n *ast.Call, args []Num) (Term, error) {
	def := s.prog.AggCalls[n]
	eval := func(f *Frame) []float64 {
		vals := make([]float64, len(args))
		for i, a := range args {
			vals[i] = a(f)
		}
		return s.prov.EvalAgg(def, f.Unit, vals)
	}
	if len(def.Outputs) == 1 {
		return Term{Num: func(f *Frame) float64 { return eval(f)[0] }}, nil
	}
	fields := make([]string, len(def.Outputs))
	for i, o := range def.Outputs {
		fields[i] = o.As
	}
	return Record(fields, eval), nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestEveryConstructMatchesWalker(t *testing.T) {
	schema := table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "hp", Kind: table.Const},
		table.Attr{Name: "damage", Kind: table.Sum},
	)
	script, err := parser.Parse(everythingScript)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(script, schema, map[string]float64{"_SCALE": 4})
	if err != nil {
		t.Fatal(err)
	}
	env := table.New(schema, 8)
	for i, hp := range []float64{3, 0, math.Copysign(0, -1), -2.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		env.Append([]float64{float64(i), hp, 0})
	}
	r := rng.New(5).Tick(7)
	prov := interp.NewNaive(prog, env, r)
	ev := interp.New(prog, env, prov, r)

	// Plan scope: walk main's let chain, compiling each value with the
	// slots bound so far, then the if-condition and the perform arguments.
	sc := &slotScope{prog: prog, unit: prog.Main.Params[0], slot: map[string]int{}, fields: map[string][]string{}, prov: prov}
	c := New(prog, sc)
	var lets []*ast.Let
	var terms []Term
	body := prog.Main.Body
	for {
		let, ok := body.(*ast.Let)
		if !ok {
			break
		}
		term, err := c.Term(let.Value)
		if err != nil {
			t.Fatalf("let %s: %v", let.Name, err)
		}
		sc.slot[let.Name], sc.fields[let.Name] = len(lets), term.Fields
		lets, terms, body = append(lets, let), append(terms, term), let.Body
	}
	if seq, ok := body.(*ast.Seq); ok {
		body = seq.Acts[0]
	}
	branch := body.(*ast.If)
	cond, err := c.Cond(branch.Cond)
	if err != nil {
		t.Fatal(err)
	}
	perform := prog.Performs[branch.Then.(*ast.Perform)]
	args, err := c.Nums(perform.Args)
	if err != nil {
		t.Fatal(err)
	}
	for _, unit := range env.Rows {
		f := &Frame{Unit: unit, Ext: make([]interp.Value, len(lets)), R: r}
		vars := map[string]interp.Value{}
		for i, let := range lets {
			want, err := ev.EvalTerm(let.Value, sc.unit, unit, vars)
			if err != nil {
				t.Fatalf("walker: let %s: %v", let.Name, err)
			}
			got := terms[i].Value(f)
			if got.Rec != want.Rec || !sameBits(got.Num, want.Num) || len(got.Vals) != len(want.Vals) {
				t.Fatalf("hp=%v: let %s: compiled %+v, interpreted %+v", unit[1], let.Name, got, want)
			}
			for j := range got.Vals {
				if !sameBits(got.Vals[j], want.Vals[j]) || got.Fields[j] != want.Fields[j] {
					t.Fatalf("hp=%v: let %s.%s: compiled %v, interpreted %v", unit[1], let.Name, want.Fields[j], got.Vals[j], want.Vals[j])
				}
			}
			f.Ext[i], vars[let.Name] = got, want
		}
		want, err := ev.EvalCond(branch.Cond, sc.unit, unit, vars)
		if err != nil {
			t.Fatal(err)
		}
		if got := cond(f); got != want {
			t.Fatalf("hp=%v: condition: compiled %v, interpreted %v", unit[1], got, want)
		}
		for i, arg := range perform.Args {
			want, err := ev.EvalTerm(arg, sc.unit, unit, vars)
			if err != nil {
				t.Fatal(err)
			}
			if got := args[i](f); !sameBits(got, want.Num) {
				t.Fatalf("hp=%v: argument %s: compiled %v, interpreted %v", unit[1], arg, got, want.Num)
			}
		}
	}

	// Definition scope: every WHERE clause, output argument and SET value.
	for _, unit := range env.Rows {
		for _, target := range env.Rows {
			for _, k := range []float64{2, 0, math.NaN(), -1} {
				f := &Frame{Unit: unit, Target: target, Args: []float64{k, unit[1]}, R: r}
				for _, def := range prog.Script.Aggs {
					dc := New(prog, Def{Params: def.Params})
					dl := interp.DefParams(def)
					if def.Where != nil {
						fn, err := dc.Cond(def.Where)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := interp.EvalDefCond(def.Where, dl, unit, f.Args, target, prog, r)
						if got := fn(f); got != want {
							t.Fatalf("%s where: compiled %v, interpreted %v", def.Name, got, want)
						}
					}
					for _, out := range def.Outputs {
						if out.Arg == nil {
							continue
						}
						fn, err := dc.Num(out.Arg)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := interp.EvalDefTermWith(out.Arg, dl, unit, f.Args, target, prog, r)
						if got := fn(f); !sameBits(got, want) {
							t.Fatalf("%s argument %s: compiled %v, interpreted %v", def.Name, out.Arg, got, want)
						}
					}
				}
				for _, def := range prog.Script.Acts {
					dc := New(prog, Def{Params: def.Params})
					dl := interp.DefParams(def)
					where, err := dc.Cond(def.Where)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := interp.EvalDefCond(def.Where, dl, unit, f.Args, target, prog, r)
					if got := where(f); got != want {
						t.Fatalf("%s where: compiled %v, interpreted %v", def.Name, got, want)
					}
					for _, set := range def.Sets {
						fn, err := dc.Num(set.Value)
						if err != nil {
							t.Fatal(err)
						}
						want, _ := interp.EvalDefTermWith(set.Value, dl, unit, f.Args, target, prog, r)
						if got := fn(f); !sameBits(got, want) {
							t.Fatalf("%s set %s: compiled %v (%#x), interpreted %v (%#x)", def.Name, set.Attr, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
