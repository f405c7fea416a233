package sem

import (
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/table"
)

func testSchema(t testing.TB) *table.Schema {
	t.Helper()
	return table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "player", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "health", Kind: table.Const},
		table.Attr{Name: "cooldown", Kind: table.Const},
		table.Attr{Name: "range", Kind: table.Const},
		table.Attr{Name: "morale", Kind: table.Const},
		table.Attr{Name: "weaponused", Kind: table.Max},
		table.Attr{Name: "movevect_x", Kind: table.Sum},
		table.Attr{Name: "movevect_y", Kind: table.Sum},
		table.Attr{Name: "damage", Kind: table.Sum},
		table.Attr{Name: "inaura", Kind: table.Max},
	)
}

var testConsts = map[string]float64{
	"_ARROW_DAMAGE": 6,
	"_ARMOR":        2,
	"_HEAL_AURA":    4,
	"_HEALER_RANGE": 10,
}

func check(t *testing.T, src string) (*Program, error) {
	t.Helper()
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(s, testSchema(t), testConsts)
}

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return p
}

func wantErr(t *testing.T, src, substr string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("expected error containing %q, got none", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error = %v, want substring %q", err, substr)
	}
}

const fullScript = `
aggregate CountEnemiesInRange(u, range) :=
  count(*)
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate CentroidOfEnemies(u, range) :=
  avg(e.posx) as x, avg(e.posy) as y
  over e where e.posx >= u.posx - range and e.posx <= u.posx + range
    and e.posy >= u.posy - range and e.posy <= u.posy + range
    and e.player <> u.player;

aggregate NearestEnemy(u) :=
  nearestkey() as key, nearestdist() as dist
  over e where e.player <> u.player;

action FireAt(u, target_key) :=
  on e where e.key = target_key
  set damage = (_ARROW_DAMAGE - _ARMOR) * (Random(1) % 2);

action MarkFired(u) :=
  on e where e.key = u.key
  set weaponused = 1;

action MoveInDirection(u, dx, dy) :=
  on e where e.key = u.key
  set movevect_x = dx, movevect_y = dy;

function main(u) {
  (let c = CountEnemiesInRange(u, u.range))
  (let away = (u.posx, u.posy) - CentroidOfEnemies(u, u.range)) {
    if c > u.morale then
      perform MoveInDirection(u, away);
    else if c > 0 and u.cooldown = 0 then
      (let target = NearestEnemy(u).key) {
        perform FireAt(u, target);
        perform MarkFired(u)
      }
  }
}
`

func TestFullScriptChecks(t *testing.T) {
	p := mustCheck(t, fullScript)
	if p.Main == nil || p.Main.Name != "main" {
		t.Fatal("main not resolved")
	}
	if len(p.AggCalls) != 3 {
		t.Fatalf("AggCalls = %d, want 3", len(p.AggCalls))
	}
	if len(p.Performs) != 3 {
		t.Fatalf("Performs = %d, want 3", len(p.Performs))
	}
	// The record argument to MoveInDirection must be expanded to 2 terms.
	for perf, target := range p.Performs {
		if perf.Name == "MoveInDirection" {
			if target.Act == nil || len(target.Args) != 2 {
				t.Fatalf("MoveInDirection target = %+v", target)
			}
		}
	}
}

func TestAggResultTypes(t *testing.T) {
	p := mustCheck(t, fullScript)
	for call, def := range p.AggCalls {
		ty := aggResultType(def)
		switch call.Name {
		case "CountEnemiesInRange":
			if !ty.Equal(Num) {
				t.Errorf("count type = %s", ty)
			}
		case "CentroidOfEnemies":
			if !ty.Equal(recordOf("x", "y")) {
				t.Errorf("centroid type = %s", ty)
			}
		case "NearestEnemy":
			if !ty.Equal(recordOf("key", "dist")) {
				t.Errorf("nearest type = %s", ty)
			}
		}
	}
}

func TestTypeHelpers(t *testing.T) {
	if !recordOf("a").Equal(recordOf("a")) || recordOf("a").Equal(recordOf("b")) {
		t.Error("Equal wrong")
	}
	if UnitType.String() != "unit" || Num.String() != "num" {
		t.Error("String wrong")
	}
	if got := recordOf("x", "y").String(); got != "record{x,y}" {
		t.Errorf("record String = %q", got)
	}
}

func TestMissingMain(t *testing.T) {
	wantErr(t, "function helper(u) { perform helper2(u) } function helper2(u) {}", "no main function")
}

func TestDuplicateDeclarations(t *testing.T) {
	wantErr(t, "function main(u) {} function main(u) {}", "duplicate declaration")
	wantErr(t, "aggregate A(u) := count(*) over e; action A(u) := on e set damage = 1; function main(u) {}", "duplicate declaration")
}

func TestUnknownNames(t *testing.T) {
	wantErr(t, "function main(u) { perform Missing(u) }", "undefined function")
	wantErr(t, "function main(u) { (let x = u.bogus) perform m2(u) } function m2(u) {}", "no attribute")
	wantErr(t, "function main(u) { (let x = _NOPE) {} }", "unknown game constant")
	wantErr(t, "function main(u) { (let x = y + 1) {} }", "undefined name")
}

func TestRecursionRejected(t *testing.T) {
	wantErr(t, "function main(u) { perform main(u) }", "recursive")
	wantErr(t, `
function main(u) { perform a(u) }
function a(u) { perform b(u) }
function b(u) { perform a(u) }
`, "recursive")
}

func TestMutualCallsAllowed(t *testing.T) {
	mustCheck(t, `
action Noop(u) := on e where e.key = u.key set damage = 0;
function main(u) { perform a(u); perform b(u) }
function a(u) { perform c(u) }
function b(u) { perform c(u) }
function c(u) { perform Noop(u) }
`)
}

func TestUnitDiscipline(t *testing.T) {
	wantErr(t, "function main(u) { (let x = u + 1) {} }", "arithmetic on the unit")
	wantErr(t, "function main(u) { (let x = u) {} }", "cannot bind the unit")
	wantErr(t, `
action A(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform A(u, u) }`, "unit may only be the first argument")
	wantErr(t, `
action A(u) := on e where e.key = u.key set damage = 1;
function main(u) { perform A(u.posx) }`, "must be the current unit")
}

func TestShadowingRejected(t *testing.T) {
	wantErr(t, "function main(u) { (let x = 1) (let x = 2) {} }", "shadows")
	wantErr(t, "function main(u) { (let u = 1) {} }", "shadows")
}

func TestRecordArithmetic(t *testing.T) {
	mustCheck(t, `
action Move(u, x, y) := on e where e.key = u.key set movevect_x = x, movevect_y = y;
function main(u) {
  (let a = (1, 2) + (3, 4))
  (let b = a * 2)
  (let c = 2 * a - b)
  perform Move(u, c)
}`)
	wantErr(t, "function main(u) { (let a = (1,2) + NearestEnemyX(u)) {} } aggregate NearestEnemyX(u) := nearestkey() as key, nearestdist() as dist over e;",
		"record shapes differ")
}

func TestComparisonsNumbersOnly(t *testing.T) {
	wantErr(t, "function main(u) { if (1,2) = (1,2) then {} }", "numbers")
}

func TestFieldAccess(t *testing.T) {
	mustCheck(t, `
aggregate N(u) := nearestkey() as key, nearestdist() as dist over e;
action A(u, k) := on e where e.key = k set damage = 1;
function main(u) { (let n = N(u)) { if n.dist < 5 then perform A(u, n.key) } }`)
	wantErr(t, `
aggregate N(u) := nearestkey() as key over e;
function main(u) { (let n = N(u)) { if n.key < 5 then {} } }`, "") // single output: n is Num, n.key invalid
}

func TestFieldOnNumberRejected(t *testing.T) {
	wantErr(t, "function main(u) { (let x = 3) (let y = x.f) {} }", "has no fields")
}

func TestAggArityAndArgs(t *testing.T) {
	wantErr(t, `
aggregate C(u, r) := count(*) over e;
function main(u) { (let x = C(u)) {} }`, "takes 2 arguments")
	wantErr(t, `
aggregate C(u) := count(*) over e;
function main(u) { (let x = C(u, (1,2))) {} }`, "takes 1 arguments")
}

func TestAggregateInsideDefinitionRejected(t *testing.T) {
	wantErr(t, `
aggregate C(u) := count(*) over e;
aggregate D(u) := sum(C(u)) over e;
function main(u) {}`, "cannot be called inside a definition")
}

func TestActionSetValidation(t *testing.T) {
	wantErr(t, "action A(u) := on e set bogus = 1; function main(u) {}", "unknown attribute")
	wantErr(t, "action A(u) := on e set posx = 1; function main(u) {}", "const and cannot be the subject")
	wantErr(t, "action A(u) := on e set damage = 1, damage = 2; function main(u) {}", "set twice")
}

func TestAggOutputValidation(t *testing.T) {
	wantErr(t, "aggregate A(u) := sum() over e; function main(u) {}", "requires an argument")
	wantErr(t, "aggregate A(u) := count(e.posx) over e; function main(u) {}", "takes no argument")
	wantErr(t, "aggregate A(u) := count(*) as c, sum(e.posx) as c over e; function main(u) {}", "duplicate output name")
}

func TestNearestRequiresPos(t *testing.T) {
	s, err := parser.Parse("aggregate N(u) := nearestkey() over e; function main(u) {}")
	if err != nil {
		t.Fatal(err)
	}
	noPos := table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "damage", Kind: table.Sum},
	)
	if _, err := Check(s, noPos, nil); err == nil || !strings.Contains(err.Error(), "posx") {
		t.Fatalf("err = %v", err)
	}
}

func TestScalarBuiltins(t *testing.T) {
	mustCheck(t, `
function main(u) {
  (let a = abs(-3))
  (let b = min(a, sqrt(4)))
  (let c = max(b, floor(2.5)))
  (let d = Random(c))
  {}
}`)
	wantErr(t, "function main(u) { (let a = abs(1, 2)) {} }", "takes 1 argument")
	wantErr(t, "function main(u) { (let a = Random((1,2))) {} }", "Random seed must be a number")
	wantErr(t, "function main(u) { (let a = min((1,2), 3)) {} }", "must be numbers")
}

func TestPerformArityAfterExpansion(t *testing.T) {
	wantErr(t, `
action Move(u, x, y) := on e where e.key = u.key set movevect_x = x, movevect_y = y;
function main(u) { perform Move(u, 1) }`, "after expansion")
	mustCheck(t, `
action Move(u, x, y) := on e where e.key = u.key set movevect_x = x, movevect_y = y;
function main(u) { perform Move(u, 1, 2) }`)
}

func TestScriptFunctionWithRecordParam(t *testing.T) {
	// A script function may receive a record; its parameter is then
	// record-typed at that call site.
	mustCheck(t, `
action Move(u, x, y) := on e where e.key = u.key set movevect_x = x, movevect_y = y;
function go(u, v) { perform Move(u, v) }
function main(u) { perform go(u, (1, 2)) }`)
}

func TestParameterNamedERejected(t *testing.T) {
	wantErr(t, "aggregate A(u, e) := count(*) over e; function main(u) {}", "may not be named 'e'")
}

func TestDuplicateParams(t *testing.T) {
	wantErr(t, "aggregate A(u, r, r) := count(*) over e; function main(u) {}", "duplicate parameter")
	wantErr(t, "function main(u) {} function f(u, a, a) { perform f2(u) } function f2(u) {}", "")
}

// ---------------------------------------------------------------------------
// Query mode (CheckQuery)

func checkQuery(t *testing.T, src string) (*Program, error) {
	t.Helper()
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return CheckQuery(s, testSchema(t), testConsts)
}

func TestCheckQueryAccepts(t *testing.T) {
	for _, src := range []string{
		`aggregate Zone(u, x, y, r) :=
		   count(*) as n, sum(e.health) as hp
		   over e where e.posx >= x - r and e.posx <= x + r
		     and e.posy >= y - r and e.posy <= y + r;`,
		`aggregate ByPlayer(u, p) := count(*) over e where e.player = p;`,
		`aggregate Spotted(u) :=
		   count(*) over e where e.posx >= u.posx - u.range and e.posx <= u.posx + u.range
		     and e.player <> u.player;`,
		`aggregate Strongest(u) := max(e.health) as top, argmax(e.health) as who over e;`,
		`aggregate A(u) := count(*) over e; aggregate B(u) := avg(e.posx) over e;`,
	} {
		p, err := checkQuery(t, src)
		if err != nil {
			t.Errorf("CheckQuery(%q) = %v", src, err)
			continue
		}
		if p.Main != nil {
			t.Error("query program should have no Main")
		}
	}
}

func TestCheckQueryRejects(t *testing.T) {
	for _, tc := range []struct{ src, substr string }{
		{`function main(u) { perform X(u) }`, "read-only"},
		{`aggregate A(u) := count(*) over e;
		  action Tag(u) := on e where e.key = u.key set damage = 1;`, "no effects"},
		{``, "no aggregate"},
		{`aggregate A(u) := count(*) over e where Random(1) > 2;`, "Random"},
		{`aggregate A(u) := sum(Random(3)) over e;`, "Random"},
		{`aggregate A(u) := count(*) over e; aggregate A(u) := count(*) over e;`, "duplicate"},
		{`aggregate A(u) := count(*) over e where e.nosuch = 1;`, "nosuch"},
	} {
		_, err := checkQuery(t, tc.src)
		if err == nil {
			t.Errorf("CheckQuery(%q) succeeded, want error containing %q", tc.src, tc.substr)
			continue
		}
		if !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("CheckQuery(%q) error = %v, want substring %q", tc.src, err, tc.substr)
		}
	}
}

// Query mode must not loosen the normal script checks: Random stays legal
// in full scripts.
func TestRandomStillAllowedInScripts(t *testing.T) {
	mustCheck(t, `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Random(1) % 4) }`)
}
