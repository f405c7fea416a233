package parser

import (
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/lexer"
	"github.com/epicscale/sgl/internal/sgl/token"
)

// parseBare parses src as one production of the grammar, which must
// consume all of it.
func parseBare[T any](src string, production func(*parser) (T, error)) (T, error) {
	var zero T
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return zero, err
	}
	p := &parser{toks: toks}
	v, err := production(p)
	if err != nil {
		return zero, err
	}
	if err := p.expect(token.EOF); err != nil {
		return zero, err
	}
	return v, nil
}

func parseTerm(src string) (ast.Term, error)     { return parseBare(src, (*parser).term) }
func parseCond(src string) (ast.Cond, error)     { return parseBare(src, (*parser).cond) }
func parseAction(src string) (ast.Action, error) { return parseBare(src, (*parser).action) }

func TestParseTermArithmetic(t *testing.T) {
	term, err := parseTerm("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	b, ok := term.(*ast.Binary)
	if !ok || b.Op != ast.Add {
		t.Fatalf("root = %T %v", term, term)
	}
	if _, ok := b.X.(*ast.NumLit); !ok {
		t.Fatalf("left = %T", b.X)
	}
	mul, ok := b.Y.(*ast.Binary)
	if !ok || mul.Op != ast.Mul {
		t.Fatalf("right should be a Mul node, got %v", b.Y)
	}
}

func TestParseTermPrecedenceAndParens(t *testing.T) {
	term, err := parseTerm("(1 + 2) * 3")
	if err != nil {
		t.Fatal(err)
	}
	b, ok := term.(*ast.Binary)
	if !ok || b.Op != ast.Mul {
		t.Fatalf("root = %v", term)
	}
	if inner, ok := b.X.(*ast.Binary); !ok || inner.Op != ast.Add {
		t.Fatalf("left = %v", b.X)
	}
}

func TestParseTermUnaryMinus(t *testing.T) {
	term, err := parseTerm("-u.posx + 3")
	if err != nil {
		t.Fatal(err)
	}
	b := term.(*ast.Binary)
	n, ok := b.X.(*ast.Neg)
	if !ok {
		t.Fatalf("left = %T", b.X)
	}
	fr, ok := n.X.(*ast.FieldRef)
	if !ok || fr.Base != "u" || fr.Field != "posx" {
		t.Fatalf("neg operand = %v", n.X)
	}
}

func TestParseTermPairAndFieldChain(t *testing.T) {
	term, err := parseTerm("(u.posx, u.posy)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := term.(*ast.Pair); !ok {
		t.Fatalf("got %T", term)
	}
	term, err = parseTerm("NearestEnemy(u).key")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := term.(*ast.Field)
	if !ok || f.Field != "key" {
		t.Fatalf("got %v", term)
	}
	if c, ok := f.X.(*ast.Call); !ok || c.Name != "NearestEnemy" {
		t.Fatalf("call = %v", f.X)
	}
}

func TestParseTermConstsAndCalls(t *testing.T) {
	term, err := parseTerm("Random(1) % 2 * (_ARROW_DAMAGE - _ARMOR)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(term.String(), "Random(1)") {
		t.Fatalf("String = %q", term.String())
	}
	if !strings.Contains(term.String(), "_ARROW_DAMAGE") {
		t.Fatalf("String = %q", term.String())
	}
}

func TestParseCondPrecedence(t *testing.T) {
	c, err := parseCond("a = 1 or b = 2 and c = 3")
	if err != nil {
		t.Fatal(err)
	}
	or, ok := c.(*ast.Or)
	if !ok {
		t.Fatalf("root = %T (or should bind loosest)", c)
	}
	if _, ok := or.Y.(*ast.And); !ok {
		t.Fatalf("right = %T, want And", or.Y)
	}
}

func TestParseCondParenAmbiguity(t *testing.T) {
	// "(c > u.morale)" — parenthesized condition.
	c, err := parseCond("(c > u.morale)")
	if err != nil {
		t.Fatal(err)
	}
	if cmp, ok := c.(*ast.Compare); !ok || cmp.Op != ast.Gt {
		t.Fatalf("got %v", c)
	}
	// "(a + b) > c" — parenthesized term on the left.
	c, err = parseCond("(a + b) > c")
	if err != nil {
		t.Fatal(err)
	}
	cmp := c.(*ast.Compare)
	if _, ok := cmp.X.(*ast.Binary); !ok {
		t.Fatalf("left = %T", cmp.X)
	}
	// "not (a = b or c = d)" — negated parenthesized condition.
	c, err = parseCond("not (a = b or c = d)")
	if err != nil {
		t.Fatal(err)
	}
	n, ok := c.(*ast.Not)
	if !ok {
		t.Fatalf("got %T", c)
	}
	if _, ok := n.X.(*ast.Or); !ok {
		t.Fatalf("inner = %T", n.X)
	}
}

func TestConjuncts(t *testing.T) {
	c, err := parseCond("a = 1 and b = 2 and (c = 3 or d = 4)")
	if err != nil {
		t.Fatal(err)
	}
	parts := ast.Conjuncts(c)
	if len(parts) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(parts))
	}
	if _, ok := parts[2].(*ast.Or); !ok {
		t.Fatalf("third conjunct = %T", parts[2])
	}
}

func TestParseActionLetIfPerform(t *testing.T) {
	a, err := parseAction(`(let c = Count(u, u.range)) if c > 3 then perform Flee(u); else perform Stay(u)`)
	if err != nil {
		t.Fatal(err)
	}
	let, ok := a.(*ast.Let)
	if !ok || let.Name != "c" {
		t.Fatalf("root = %T", a)
	}
	iff, ok := let.Body.(*ast.If)
	if !ok {
		t.Fatalf("body = %T", let.Body)
	}
	if iff.Else == nil {
		t.Fatal("else branch missing (the '; else' form must parse)")
	}
	if p, ok := iff.Then.(*ast.Perform); !ok || p.Name != "Flee" {
		t.Fatalf("then = %v", iff.Then)
	}
}

func TestParseActionSequence(t *testing.T) {
	a, err := parseAction("perform A(u); perform B(u); perform C(u);")
	if err != nil {
		t.Fatal(err)
	}
	seq, ok := a.(*ast.Seq)
	if !ok || len(seq.Acts) != 3 {
		t.Fatalf("got %T with %v", a, a)
	}
}

func TestParseActionEmptyBraces(t *testing.T) {
	a, err := parseAction("{}")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.(*ast.Nop); !ok {
		t.Fatalf("got %T", a)
	}
}

func TestParsePaperFigure3(t *testing.T) {
	src := `
main(u) {
  (let c = CountEnemiesInRange(u, u.range))
  (let away_vector = (u.posx, u.posy) - CentroidOfEnemyUnits(u, u.range)) {
    if (c > u.morale) then
      perform MoveInDirection(u, away_vector);
    else if (c > 0 and u.cooldown = 0) then
      (let target_key = NearestEnemy(u).key) {
        perform FireAt(u, target_key);
      }
  }
}`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Funcs) != 1 || s.Funcs[0].Name != "main" {
		t.Fatalf("funcs = %v", s.Funcs)
	}
	main := s.Func("main")
	if main == nil || len(main.Params) != 1 || main.Params[0] != "u" {
		t.Fatalf("main = %+v", main)
	}
	outer, ok := main.Body.(*ast.Let)
	if !ok || outer.Name != "c" {
		t.Fatalf("outer = %T", main.Body)
	}
	inner, ok := outer.Body.(*ast.Let)
	if !ok || inner.Name != "away_vector" {
		t.Fatalf("inner = %T", outer.Body)
	}
	iff, ok := inner.Body.(*ast.If)
	if !ok || iff.Else == nil {
		t.Fatalf("if = %+v", inner.Body)
	}
	elseIf, ok := iff.Else.(*ast.If)
	if !ok || elseIf.Else != nil {
		t.Fatalf("else-if = %+v", iff.Else)
	}
	if let, ok := elseIf.Then.(*ast.Let); !ok || let.Name != "target_key" {
		t.Fatalf("else-if body = %+v", elseIf.Then)
	}
}

func TestParseAggregateDecl(t *testing.T) {
	src := `
aggregate CountEnemiesInRange(u, range) :=
  count(*)
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate CentroidOfEnemyUnits(u, range) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.player <> u.player;
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Aggs) != 2 {
		t.Fatalf("aggs = %d", len(s.Aggs))
	}
	c := s.Agg("CountEnemiesInRange")
	if c == nil || len(c.Outputs) != 1 || c.Outputs[0].Func != ast.Count || c.Outputs[0].Arg != nil {
		t.Fatalf("count decl = %+v", c)
	}
	if got := len(ast.Conjuncts(c.Where)); got != 5 {
		t.Fatalf("conjuncts = %d, want 5", got)
	}
	cen := s.Agg("CentroidOfEnemyUnits")
	if cen.Outputs[0].As != "x" || cen.Outputs[1].As != "y" {
		t.Fatalf("centroid outputs = %+v", cen.Outputs)
	}
	if cen.Outputs[0].Func != ast.Avg {
		t.Fatalf("centroid func = %v", cen.Outputs[0].Func)
	}
}

func TestParseAggregateDefaultOutputName(t *testing.T) {
	s, err := Parse("aggregate Weakest(u) := min(e.health) over e;")
	if err != nil {
		t.Fatal(err)
	}
	if s.Aggs[0].Outputs[0].As != "min" {
		t.Fatalf("default name = %q", s.Aggs[0].Outputs[0].As)
	}
	if s.Aggs[0].Where != nil {
		t.Fatal("where should be nil")
	}
}

func TestParseActionDecl(t *testing.T) {
	src := `
action FireAt(u, target_key) :=
  on e where e.key = target_key
  set damage = (_ARROW_HIT_DAMAGE - _ARMOR) * (Random(1) % 2);

action Heal(u) :=
  on e where u.player = e.player
    and e.posx >= u.posx - _HEALER_RANGE and e.posx <= u.posx + _HEALER_RANGE
    and e.posy >= u.posy - _HEALER_RANGE and e.posy <= u.posy + _HEALER_RANGE
  set inaura = _HEAL_AURA;
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Acts) != 2 {
		t.Fatalf("acts = %d", len(s.Acts))
	}
	fire := s.Act("FireAt")
	if fire == nil || len(fire.Sets) != 1 || fire.Sets[0].Attr != "damage" {
		t.Fatalf("fire = %+v", fire)
	}
	heal := s.Act("Heal")
	if heal == nil || len(ast.Conjuncts(heal.Where)) != 5 {
		t.Fatalf("heal = %+v", heal)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, substr string
	}{
		{"function", "expected function name"},
		{"main() {}", "at least the unit parameter"},
		{"main(u) { perform }", "expected function name after 'perform'"},
		{"main(u) { if then perform A(u) }", "expected condition"},
		{"main(u) { (u) }", "expected 'let'"},
		{"aggregate A(u) := bogus(*) over e;", "unknown aggregate function"},
		{"aggregate A(u) := count(*) over x;", "expected environment row variable 'e'"},
		{"action A(u) := on e set ;", "expected attribute name"},
		{"main(u) { perform A(u) } trailing", "expected"},
		{"42", "expected declaration"},
		{"main(u) { (let x = ) perform A(u) }", "expected term"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", c.src, c.substr)
			continue
		}
		if !strings.Contains(err.Error(), c.substr) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.substr)
		}
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	_, err := Parse("main(u) {\n  perform\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if pe.Pos.Line != 3 { // the '}' after "perform" is on line 3
		t.Fatalf("error line = %d", pe.Pos.Line)
	}
}

func TestNestedElseChains(t *testing.T) {
	src := `main(u) {
	  if a = 1 then perform A(u)
	  else if a = 2 then perform B(u)
	  else if a = 3 then perform C(u)
	  else perform D(u)
	}`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	var a ast.Action = s.Funcs[0].Body
	for {
		iff, ok := a.(*ast.If)
		if !ok {
			break
		}
		depth++
		if iff.Else == nil {
			break
		}
		a = iff.Else
	}
	if depth != 3 {
		t.Fatalf("chain depth = %d, want 3", depth)
	}
}
