// Package parser builds the SGL abstract syntax tree from source text.
//
// The accepted grammar (see the package documentation of ast for the
// declaration forms):
//
//	script    := decl*
//	decl      := ["function"] IDENT "(" params ")" "{" action "}"
//	           | "aggregate" IDENT "(" params ")" ":=" aggOut ("," aggOut)*
//	             "over" IDENT ["where" cond] ";"
//	           | "action" IDENT "(" params ")" ":=" "on" IDENT
//	             ["where" cond] "set" set ("," set)* ";"
//	action    := prim (";" [prim])*
//	prim      := "(" "let" IDENT "=" term ")" prim
//	           | "{" [action] "}"
//	           | "if" cond "then" prim [[";"] "else" prim]
//	           | "perform" IDENT "(" args ")"
//	cond      := or; or := and ("or" and)*; and := atom ("and" atom)*
//	atom      := "not" atom | "true" | "false" | term cmp term | "(" cond ")"
//	term      := add; add := mul (("+"|"-") mul)*; mul := unary (("*"|"/"|"%") unary)*
//	unary     := "-" unary | postfix; postfix := primary ("." IDENT)*
//	primary   := NUMBER | CONST | IDENT ["(" args ")"] | "(" term ["," term] ")"
//
// The `; else` form matches the paper's Figure 3, which writes a semicolon
// before `else`.
package parser

import (
	"fmt"
	"strconv"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/lexer"
	"github.com/epicscale/sgl/internal/sgl/token"
)

// Error is a syntax error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parse parses a complete SGL compilation unit.
func Parse(src string) (*ast.Script, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.script()
}

type parser struct {
	toks []token.Token
	i    int
}

func (p *parser) cur() token.Token  { return p.toks[p.i] }
func (p *parser) peek() token.Token { return p.toks[min(p.i+1, len(p.toks)-1)] }
func (p *parser) next() token.Token {
	t := p.toks[p.i]
	if t.Kind != token.EOF {
		p.i++
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *parser) errf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k token.Kind) error {
	if p.cur().Kind != k {
		return p.errf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) accept(k token.Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Declarations

func (p *parser) script() (*ast.Script, error) {
	s := &ast.Script{}
	for p.cur().Kind != token.EOF {
		switch p.cur().Kind {
		case token.KwAggregate:
			d, err := p.aggDecl()
			if err != nil {
				return nil, err
			}
			d.Ord = len(s.Aggs)
			s.Aggs = append(s.Aggs, d)
		case token.KwAction:
			d, err := p.actDecl()
			if err != nil {
				return nil, err
			}
			d.Ord = len(s.Acts)
			s.Acts = append(s.Acts, d)
		case token.KwFunction, token.Ident:
			d, err := p.funcDecl()
			if err != nil {
				return nil, err
			}
			s.Funcs = append(s.Funcs, d)
		default:
			return nil, p.errf(p.cur().Pos, "expected declaration, found %s", p.cur())
		}
	}
	return s, nil
}

func (p *parser) params() ([]string, []token.Pos, error) {
	if err := p.expect(token.LParen); err != nil {
		return nil, nil, err
	}
	var names []string
	var poss []token.Pos
	if p.cur().Kind != token.RParen {
		for {
			if p.cur().Kind != token.Ident {
				return nil, nil, p.errf(p.cur().Pos, "expected parameter name, found %s", p.cur())
			}
			t := p.next()
			names = append(names, t.Text)
			poss = append(poss, t.Pos)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if err := p.expect(token.RParen); err != nil {
		return nil, nil, err
	}
	if len(names) == 0 {
		return nil, nil, p.errf(p.cur().Pos, "declaration needs at least the unit parameter")
	}
	return names, poss, nil
}

func (p *parser) funcDecl() (*ast.FuncDef, error) {
	pos := p.cur().Pos
	p.accept(token.KwFunction) // optional, matching the paper's bare main(u){…}
	if p.cur().Kind != token.Ident {
		return nil, p.errf(p.cur().Pos, "expected function name, found %s", p.cur())
	}
	name := p.next().Text
	params, ppos, err := p.params()
	if err != nil {
		return nil, err
	}
	if err := p.expect(token.LBrace); err != nil {
		return nil, err
	}
	var body ast.Action
	if p.cur().Kind == token.RBrace {
		body = &ast.Nop{P: p.cur().Pos}
	} else {
		body, err = p.action()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return &ast.FuncDef{P: pos, Name: name, Params: params, ParamPos: ppos, Body: body}, nil
}

func (p *parser) aggDecl() (*ast.AggDef, error) {
	pos := p.next().Pos // aggregate
	if p.cur().Kind != token.Ident {
		return nil, p.errf(p.cur().Pos, "expected aggregate name, found %s", p.cur())
	}
	name := p.next().Text
	params, ppos, err := p.params()
	if err != nil {
		return nil, err
	}
	if err := p.expect(token.Define); err != nil {
		return nil, err
	}
	var outs []ast.AggOutput
	for {
		out, err := p.aggOutput()
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		if !p.accept(token.Comma) {
			break
		}
	}
	if err := p.expect(token.KwOver); err != nil {
		return nil, err
	}
	if p.cur().Kind != token.Ident || p.cur().Text != "e" {
		return nil, p.errf(p.cur().Pos, "expected environment row variable 'e', found %s", p.cur())
	}
	p.next()
	var where ast.Cond
	if p.accept(token.KwWhere) {
		where, err = p.cond()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.AggDef{P: pos, Name: name, Params: params, ParamPos: ppos, Outputs: outs, Where: where}, nil
}

func (p *parser) aggOutput() (ast.AggOutput, error) {
	pos := p.cur().Pos
	if p.cur().Kind != token.Ident {
		return ast.AggOutput{}, p.errf(pos, "expected aggregate function, found %s", p.cur())
	}
	fname := p.next().Text
	f, ok := ast.AggFuncByName[lower(fname)]
	if !ok {
		return ast.AggOutput{}, p.errf(pos, "unknown aggregate function %q", fname)
	}
	if err := p.expect(token.LParen); err != nil {
		return ast.AggOutput{}, err
	}
	var arg ast.Term
	switch {
	case p.accept(token.Star): // count(*)
	case p.cur().Kind == token.RParen: // count(), nearestkey()
	default:
		var err error
		arg, err = p.term()
		if err != nil {
			return ast.AggOutput{}, err
		}
	}
	if err := p.expect(token.RParen); err != nil {
		return ast.AggOutput{}, err
	}
	as := lower(fname)
	if p.accept(token.KwAs) {
		if p.cur().Kind != token.Ident {
			return ast.AggOutput{}, p.errf(p.cur().Pos, "expected output name after 'as', found %s", p.cur())
		}
		as = p.next().Text
	}
	return ast.AggOutput{P: pos, Func: f, Arg: arg, As: as}, nil
}

func (p *parser) actDecl() (*ast.ActDef, error) {
	pos := p.next().Pos // action
	if p.cur().Kind != token.Ident {
		return nil, p.errf(p.cur().Pos, "expected action name, found %s", p.cur())
	}
	name := p.next().Text
	params, ppos, err := p.params()
	if err != nil {
		return nil, err
	}
	if err := p.expect(token.Define); err != nil {
		return nil, err
	}
	if err := p.expect(token.KwOn); err != nil {
		return nil, err
	}
	if p.cur().Kind != token.Ident || p.cur().Text != "e" {
		return nil, p.errf(p.cur().Pos, "expected environment row variable 'e', found %s", p.cur())
	}
	p.next()
	var where ast.Cond
	if p.accept(token.KwWhere) {
		where, err = p.cond()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(token.KwSet); err != nil {
		return nil, err
	}
	var sets []ast.SetClause
	for {
		if p.cur().Kind != token.Ident {
			return nil, p.errf(p.cur().Pos, "expected attribute name in set clause, found %s", p.cur())
		}
		spos := p.cur().Pos
		attr := p.next().Text
		if err := p.expect(token.Assign); err != nil {
			return nil, err
		}
		v, err := p.term()
		if err != nil {
			return nil, err
		}
		sets = append(sets, ast.SetClause{P: spos, Attr: attr, Value: v})
		if !p.accept(token.Comma) {
			break
		}
	}
	if err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return &ast.ActDef{P: pos, Name: name, Params: params, ParamPos: ppos, Where: where, Sets: sets}, nil
}

// ---------------------------------------------------------------------------
// Actions

func (p *parser) action() (ast.Action, error) {
	pos := p.cur().Pos
	var acts []ast.Action
	first, err := p.primAction()
	if err != nil {
		return nil, err
	}
	acts = append(acts, first)
	for p.accept(token.Semi) {
		if k := p.cur().Kind; k == token.RBrace || k == token.EOF || k == token.KwElse {
			break // trailing semicolon
		}
		a, err := p.primAction()
		if err != nil {
			return nil, err
		}
		acts = append(acts, a)
	}
	if len(acts) == 1 {
		return acts[0], nil
	}
	return &ast.Seq{P: pos, Acts: acts}, nil
}

func (p *parser) primAction() (ast.Action, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.LParen:
		// "(" let … ")" action
		if p.peek().Kind != token.KwLet {
			return nil, p.errf(pos, "expected 'let' after '(' in action position")
		}
		p.next() // (
		p.next() // let
		if p.cur().Kind != token.Ident {
			return nil, p.errf(p.cur().Pos, "expected variable name after 'let', found %s", p.cur())
		}
		name := p.next().Text
		if err := p.expect(token.Assign); err != nil {
			return nil, err
		}
		val, err := p.term()
		if err != nil {
			return nil, err
		}
		if err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		body, err := p.primAction()
		if err != nil {
			return nil, err
		}
		return &ast.Let{P: pos, Name: name, Value: val, Body: body}, nil

	case token.LBrace:
		p.next()
		if p.accept(token.RBrace) {
			return &ast.Nop{P: pos}, nil
		}
		a, err := p.action()
		if err != nil {
			return nil, err
		}
		if err := p.expect(token.RBrace); err != nil {
			return nil, err
		}
		return a, nil

	case token.KwIf:
		p.next()
		cond, err := p.cond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(token.KwThen); err != nil {
			return nil, err
		}
		then, err := p.primAction()
		if err != nil {
			return nil, err
		}
		node := &ast.If{P: pos, Cond: cond, Then: then}
		// Accept both "… else" and the paper's "…; else".
		if p.cur().Kind == token.KwElse ||
			(p.cur().Kind == token.Semi && p.peek().Kind == token.KwElse) {
			p.accept(token.Semi)
			p.next() // else
			els, err := p.primAction()
			if err != nil {
				return nil, err
			}
			node.Else = els
		}
		return node, nil

	case token.KwPerform:
		p.next()
		if p.cur().Kind != token.Ident {
			return nil, p.errf(p.cur().Pos, "expected function name after 'perform', found %s", p.cur())
		}
		name := p.next().Text
		if err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		args, err := p.args()
		if err != nil {
			return nil, err
		}
		return &ast.Perform{P: pos, Name: name, Args: args}, nil
	}
	return nil, p.errf(pos, "expected action, found %s", p.cur())
}

func (p *parser) args() ([]ast.Term, error) {
	var out []ast.Term
	if p.cur().Kind != token.RParen {
		for {
			t, err := p.term()
			if err != nil {
				return nil, err
			}
			out = append(out, t)
			if !p.accept(token.Comma) {
				break
			}
		}
	}
	if err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Conditions

func (p *parser) cond() (ast.Cond, error) {
	left, err := p.andCond()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == token.KwOr {
		pos := p.next().Pos
		right, err := p.andCond()
		if err != nil {
			return nil, err
		}
		left = &ast.Or{P: pos, X: left, Y: right}
	}
	return left, nil
}

func (p *parser) andCond() (ast.Cond, error) {
	left, err := p.atomCond()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == token.KwAnd {
		pos := p.next().Pos
		right, err := p.atomCond()
		if err != nil {
			return nil, err
		}
		left = &ast.And{P: pos, X: left, Y: right}
	}
	return left, nil
}

var cmpOps = map[token.Kind]ast.CmpOp{
	token.Assign: ast.Eq, token.NotEq: ast.Ne,
	token.Less: ast.Lt, token.LessEq: ast.Le,
	token.Greater: ast.Gt, token.GreatEq: ast.Ge,
}

func (p *parser) atomCond() (ast.Cond, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.KwNot:
		p.next()
		x, err := p.atomCond()
		if err != nil {
			return nil, err
		}
		return &ast.Not{P: pos, X: x}, nil
	case token.KwTrue:
		p.next()
		return &ast.BoolLit{P: pos, Val: true}, nil
	case token.KwFalse:
		p.next()
		return &ast.BoolLit{P: pos, Val: false}, nil
	}

	// Ambiguity between "(cond)" and "term cmp term" where the term begins
	// with "(": try the comparison reading first, backtracking on failure.
	save := p.i
	if x, err := p.term(); err == nil {
		if op, ok := cmpOps[p.cur().Kind]; ok {
			p.next()
			y, err := p.term()
			if err != nil {
				return nil, err
			}
			return &ast.Compare{P: pos, Op: op, X: x, Y: y}, nil
		}
	}
	p.i = save

	if p.cur().Kind == token.LParen {
		p.next()
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		if err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errf(pos, "expected condition, found %s", p.cur())
}

// ---------------------------------------------------------------------------
// Terms

func (p *parser) term() (ast.Term, error) {
	left, err := p.mulTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Kind {
		case token.Plus:
			op = ast.Add
		case token.Minus:
			op = ast.Sub
		default:
			return left, nil
		}
		pos := p.next().Pos
		right, err := p.mulTerm()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{P: pos, Op: op, X: left, Y: right}
	}
}

func (p *parser) mulTerm() (ast.Term, error) {
	left, err := p.unaryTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op ast.BinOp
		switch p.cur().Kind {
		case token.Star:
			op = ast.Mul
		case token.Slash:
			op = ast.Div
		case token.Percent:
			op = ast.Mod
		default:
			return left, nil
		}
		pos := p.next().Pos
		right, err := p.unaryTerm()
		if err != nil {
			return nil, err
		}
		left = &ast.Binary{P: pos, Op: op, X: left, Y: right}
	}
}

func (p *parser) unaryTerm() (ast.Term, error) {
	if p.cur().Kind == token.Minus {
		pos := p.next().Pos
		x, err := p.unaryTerm()
		if err != nil {
			return nil, err
		}
		return &ast.Neg{P: pos, X: x}, nil
	}
	return p.postfixTerm()
}

func (p *parser) postfixTerm() (ast.Term, error) {
	t, err := p.primaryTerm()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == token.Dot {
		pos := p.next().Pos
		if p.cur().Kind != token.Ident {
			return nil, p.errf(p.cur().Pos, "expected field name after '.', found %s", p.cur())
		}
		field := p.next().Text
		if v, ok := t.(*ast.VarRef); ok {
			t = &ast.FieldRef{P: v.P, Base: v.Name, Field: field}
		} else {
			t = &ast.Field{P: pos, X: t, Field: field}
		}
	}
	return t, nil
}

func (p *parser) primaryTerm() (ast.Term, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.Number:
		text := p.next().Text
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, p.errf(pos, "bad number %q", text)
		}
		return &ast.NumLit{P: pos, Val: v}, nil

	case token.Const:
		return &ast.ConstRef{P: pos, Name: p.next().Text}, nil

	case token.Ident:
		name := p.next().Text
		if p.cur().Kind == token.LParen {
			p.next()
			args, err := p.args()
			if err != nil {
				return nil, err
			}
			return &ast.Call{P: pos, Name: name, Args: args}, nil
		}
		return &ast.VarRef{P: pos, Name: name}, nil

	case token.LParen:
		p.next()
		x, err := p.term()
		if err != nil {
			return nil, err
		}
		if p.accept(token.Comma) {
			y, err := p.term()
			if err != nil {
				return nil, err
			}
			if err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			return &ast.Pair{P: pos, X: x, Y: y}, nil
		}
		if err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf(pos, "expected term, found %s", p.cur())
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
