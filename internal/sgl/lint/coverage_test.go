package lint

import (
	"math"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/sgl/ast"
)

// Direct unit tests for the pure helpers of the interval analysis and
// the constant folder — the end-to-end tests exercise the common paths,
// these pin the full operator tables.

func num(v float64) *ast.NumLit { return &ast.NumLit{Val: v} }

func cmp(op ast.CmpOp, x, y ast.Term) *ast.Compare { return &ast.Compare{Op: op, X: x, Y: y} }

func TestCondVerdictTable(t *testing.T) {
	l := &linter{opts: Options{Consts: map[string]float64{"_K": 4}}}
	varRef := &ast.VarRef{Name: "x"} // not foldable → unknown
	cases := []struct {
		name string
		cond ast.Cond
		want int
	}{
		{"true literal", &ast.BoolLit{Val: true}, vTrue},
		{"false literal", &ast.BoolLit{Val: false}, vFalse},
		{"not true", &ast.Not{X: &ast.BoolLit{Val: true}}, vFalse},
		{"not false", &ast.Not{X: &ast.BoolLit{Val: false}}, vTrue},
		{"not unknown", &ast.Not{X: cmp(ast.Lt, varRef, num(1))}, vUnknown},
		{"and short-circuit false", &ast.And{X: &ast.BoolLit{Val: false}, Y: cmp(ast.Lt, varRef, num(1))}, vFalse},
		{"and both true", &ast.And{X: &ast.BoolLit{Val: true}, Y: cmp(ast.Lt, num(1), num(2))}, vTrue},
		{"and unknown", &ast.And{X: &ast.BoolLit{Val: true}, Y: cmp(ast.Lt, varRef, num(1))}, vUnknown},
		{"or short-circuit true", &ast.Or{X: &ast.BoolLit{Val: true}, Y: cmp(ast.Lt, varRef, num(1))}, vTrue},
		{"or both false", &ast.Or{X: &ast.BoolLit{Val: false}, Y: cmp(ast.Gt, num(1), num(2))}, vFalse},
		{"or unknown", &ast.Or{X: &ast.BoolLit{Val: false}, Y: cmp(ast.Lt, varRef, num(1))}, vUnknown},
		{"eq", cmp(ast.Eq, num(3), num(3)), vTrue},
		{"ne", cmp(ast.Ne, num(3), num(3)), vFalse},
		{"lt", cmp(ast.Lt, num(2), num(3)), vTrue},
		{"le", cmp(ast.Le, num(3), num(3)), vTrue},
		{"gt", cmp(ast.Gt, num(2), num(3)), vFalse},
		{"ge", cmp(ast.Ge, num(3), num(3)), vTrue},
		{"const ref", cmp(ast.Eq, &ast.ConstRef{Name: "_K"}, num(4)), vTrue},
		{"nan is false", cmp(ast.Le, num(math.NaN()), num(1)), vFalse},
		{"unfoldable", cmp(ast.Lt, varRef, num(1)), vUnknown},
	}
	for _, c := range cases {
		if got := l.condVerdict(c.cond); got != c.want {
			t.Errorf("%s: verdict = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFoldBuiltinsAndOperators(t *testing.T) {
	l := &linter{opts: Options{Consts: map[string]float64{"_K": 9}}}
	call := func(name string, args ...ast.Term) *ast.Call { return &ast.Call{Name: name, Args: args} }
	cases := []struct {
		name string
		term ast.Term
		want float64
	}{
		{"neg", &ast.Neg{X: num(3)}, -3},
		{"add", &ast.Binary{Op: ast.Add, X: num(1), Y: num(2)}, 3},
		{"sub", &ast.Binary{Op: ast.Sub, X: num(1), Y: num(2)}, -1},
		{"mul", &ast.Binary{Op: ast.Mul, X: num(3), Y: num(4)}, 12},
		{"div", &ast.Binary{Op: ast.Div, X: num(8), Y: num(2)}, 4},
		{"mod", &ast.Binary{Op: ast.Mod, X: num(8), Y: num(3)}, 2},
		{"mod truncates like the runtime", &ast.Binary{Op: ast.Mod, X: num(5.5), Y: num(2)}, 1},
		{"mod of a negative fraction", &ast.Binary{Op: ast.Mod, X: num(-7.5), Y: num(2)}, -1},
		{"const", &ast.ConstRef{Name: "_K"}, 9},
		{"abs", call("abs", num(-5)), 5},
		{"sqrt", call("sqrt", &ast.ConstRef{Name: "_K"}), 3},
		{"floor", call("floor", num(2.9)), 2},
		{"min", call("min", num(2), num(7)), 2},
		{"max", call("max", num(2), num(7)), 7},
	}
	for _, c := range cases {
		got, ok := l.fold(c.term)
		if !ok || got != c.want {
			t.Errorf("%s: fold = (%v, %v), want (%v, true)", c.name, got, ok, c.want)
		}
	}
	if _, ok := l.fold(&ast.ConstRef{Name: "_MISSING"}); ok {
		t.Error("unknown constant folded")
	}
	if _, ok := l.fold(call("abs", &ast.VarRef{Name: "x"})); ok {
		t.Error("call over an unfoldable argument folded")
	}
}

func TestMirrorOpFullTable(t *testing.T) {
	cases := map[ast.CmpOp]ast.CmpOp{
		ast.Lt: ast.Gt, ast.Le: ast.Ge, ast.Gt: ast.Lt, ast.Ge: ast.Le,
		ast.Eq: ast.Eq, ast.Ne: ast.Ne,
	}
	for op, want := range cases { //sgl:unordered each case is checked independently
		if got := mirrorOp(op); got != want {
			t.Errorf("mirrorOp(%v) = %v, want %v", op, got, want)
		}
	}
}

// TestConstantOnLeftMirrors pins the mirrored-comparison path through
// the public surface: `5 < e.health` must constrain e.health exactly
// like `e.health > 5`, so adding an upper bound below 5 is SGL006.
func TestConstantOnLeftMirrors(t *testing.T) {
	diags := lintScript(t, `
aggregate Foes(u) := count(*) over e where 5 < e.health and e.health < 3;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Foes(u)) }`)
	wantCodes(t, diags, CodeAlwaysFalse)
}

// TestTooManyAxesIsSGL101 and TestNonCategoricalEqIsSGL101 pin the two
// perfAgg details the common fleet never hits: a 3-axis range box and an
// equality partition on a non-categorical attribute.
func TestTooManyAxesIsSGL101(t *testing.T) {
	diags := lintScript(t, `
aggregate Box(u) := count(*) over e
  where e.posx >= u.posx - 1 and e.posx <= u.posx + 1
    and e.posy >= u.posy - 1 and e.posy <= u.posy + 1
    and e.health >= u.health - 1 and e.health <= u.health + 1;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Box(u)) }`)
	wantCodes(t, diags, CodeResidual)
	if !strings.Contains(diags[0].Msg, "range axes exceed") {
		t.Errorf("detail = %q, want the axis-count explanation", diags[0].Msg)
	}
}

func TestNonCategoricalEqIsSGL101(t *testing.T) {
	diags := lintScript(t, `
aggregate Same(u) := count(*) over e where e.health = u.health;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Same(u)) }`)
	wantCodes(t, diags, CodeResidual)
	if !strings.Contains(diags[0].Msg, "non-categorical") || !strings.Contains(diags[0].Msg, "health") {
		t.Errorf("detail = %q, want the non-categorical equality explanation naming health", diags[0].Msg)
	}
}

// TestNearestWithRangeIsSGL104 pins the nearest-specific scan reason
// (query mode).
func TestNearestWithRangeIsSGL104(t *testing.T) {
	diags := lintQuery(t, `aggregate Close(u) := nearestkey() as key over e
  where e.posx >= u.posx - 5 and e.posx <= u.posx + 5;`)
	wantCodes(t, diags, CodeScanOutput)
	found := false
	for _, d := range diags {
		if d.Code == CodeScanOutput {
			found = true
			if !strings.Contains(d.Msg, "kD-tree") {
				t.Errorf("detail = %q, want the nearest/kD-tree explanation", d.Msg)
			}
		}
	}
	if !found {
		t.Fatal("no SGL104 diagnostic")
	}
}

func TestModulusByZeroMessage(t *testing.T) {
	diags := lintScript(t, `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, u.health % (1 - 1)) }`)
	wantCodes(t, diags, CodeDivZero)
	if !strings.Contains(diags[0].Msg, "modulus") || !strings.Contains(diags[0].Msg, "NaN") {
		t.Errorf("msg = %q, want a modulus-specific NaN message", diags[0].Msg)
	}
}

// TestModulusFoldMatchesRuntime pins the folder to SGL's truncating
// modulus: 5.5 % 2 runs as 1, so a conjunct comparing it with 1 always
// holds and one comparing it with 1.5 never does. Folded with math.Mod
// (1.5), both verdicts flip.
func TestModulusFoldMatchesRuntime(t *testing.T) {
	diags := lintScript(t, `
aggregate A(u) := count(*) over e where 5.5 % 2 = 1 and e.health > 0;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, A(u)) }`)
	wantCodes(t, diags, CodeAlwaysTrue)
	diags = lintScript(t, `
aggregate A(u) := count(*) over e where 5.5 % 2 = 1.5 and e.health > 0;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, A(u)) }`)
	wantCodes(t, diags, CodeAlwaysFalse)
}

// TestIntervalEdgeCases drives the open/closed bound handling and the
// ≠-exclusion logic through the public surface.
func TestIntervalEdgeCases(t *testing.T) {
	// Open bounds that meet exactly: x > 5 and x < 5 is empty even
	// though lo == hi.
	diags := lintScript(t, `
aggregate A(u) := count(*) over e where e.health > 5 and e.health < 5;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, A(u)) }`)
	wantCodes(t, diags, CodeAlwaysFalse)

	// A point interval erased by ≠: x >= 5 and x <= 5 and x <> 5.
	diags = lintScript(t, `
aggregate A(u) := count(*) over e where e.health >= 5 and e.health <= 5 and e.health <> 5;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, A(u)) }`)
	wantCodes(t, diags, CodeAlwaysFalse)

	// Equality pinned inside a wider range is implied, not empty.
	diags = lintScript(t, `
aggregate A(u) := count(*) over e where e.health = 5 and e.health <= 9;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, A(u)) }`)
	wantCodes(t, diags, CodeAlwaysTrue)
}
