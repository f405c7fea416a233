package lint

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/game"
)

func lintScript(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return Lint(src, Options{
		Mode:         ModeScript,
		Schema:       game.Schema(),
		Categoricals: game.Categoricals(),
	})
}

func lintQuery(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return Lint(src, Options{
		Mode:         ModeQuery,
		Schema:       game.Schema(),
		Categoricals: game.Categoricals(),
	})
}

// codes returns the distinct diagnostic codes, sorted.
func codes(diags []Diagnostic) []string { return sortedCodes(diags) }

func wantCodes(t *testing.T, diags []Diagnostic, want ...string) {
	t.Helper()
	got := codes(diags)
	if want == nil {
		want = []string{}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("codes = %v, want %v\ndiagnostics:\n%s", got, want, strings.Join(Strings(diags), "\n"))
	}
}

// A lint-clean script: everything reachable, indexed, divisible, no guard
// after the probe.
const cleanSrc = `
aggregate Foes(u) :=
  count(*)
  over e where e.player <> u.player
    and e.posx >= u.posx - 5 and e.posx <= u.posx + 5;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Foes(u)) }`

func TestCleanScriptHasNoDiagnostics(t *testing.T) {
	wantCodes(t, lintScript(t, cleanSrc))
}

func TestParseErrorIsSGL001(t *testing.T) {
	diags := lintScript(t, "function main(u) {")
	wantCodes(t, diags, CodeCompile)
	if !HasErrors(diags) {
		t.Error("parse failure should be an error-severity diagnostic")
	}
	if diags[0].Line == 0 || diags[0].Col == 0 {
		t.Errorf("SGL001 carries no position: %+v", diags[0])
	}
}

func TestSemErrorIsSGL001(t *testing.T) {
	src := `function main(u) { perform Missing(u) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeCompile)
	if want := "Missing"; !strings.Contains(diags[0].Msg, want) {
		t.Errorf("msg %q does not mention %q", diags[0].Msg, want)
	}
}

func TestDuplicateDeclarationIsSGL002(t *testing.T) {
	src := `
aggregate N(u) := count(*) over e;
aggregate N(u) := sum(e.health) over e;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	diags := lintScript(t, src)
	// sem also rejects the script; the sharper SGL002 must be the only
	// error at that position.
	wantCodes(t, diags, CodeDupDecl)
	if diags[0].Line != 3 {
		t.Errorf("SGL002 at line %d, want 3 (the redeclaration)", diags[0].Line)
	}
}

func TestDuplicateParamIsSGL003AtParamPosition(t *testing.T) {
	src := `
action Tag(u, v, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, 1, 2) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeDupParam)
	d := diags[0]
	if d.Line != 2 || d.Col != 18 {
		t.Errorf("SGL003 at %d:%d, want 2:18 (the second v)", d.Line, d.Col)
	}
}

func TestShadowIsSGL004(t *testing.T) {
	src := `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) {
  (let x = 1) (let x = 2) perform Tag(u, x)
}`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeShadow)
}

func TestDivisionByConstantZeroIsSGL005(t *testing.T) {
	src := `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, u.health / (2 - 2)) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeDivZero)
}

func TestUnsatisfiableConjunctionIsSGL006(t *testing.T) {
	src := `
aggregate N(u) := count(*) over e where e.health > 5 and e.health < 3;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeAlwaysFalse)
	if !strings.Contains(diags[0].Msg, "e.health") {
		t.Errorf("SGL006 should name the term: %s", diags[0].Msg)
	}
}

func TestConstantFalseComparisonIsSGL006(t *testing.T) {
	src := `
aggregate N(u) := count(*) over e where 1 > 2;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	wantCodes(t, lintScript(t, src), CodeAlwaysFalse)
}

func TestNaNComparisonIsSGL006(t *testing.T) {
	src := `
aggregate N(u) := count(*) over e where e.health > 0 / 0;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	diags := lintScript(t, src)
	for _, d := range diags {
		if d.Code == CodeAlwaysFalse && strings.Contains(d.Msg, "NaN") {
			return
		}
	}
	t.Errorf("no NaN SGL006 among:\n%s", strings.Join(Strings(diags), "\n"))
}

func TestImpliedConjunctIsSGL007(t *testing.T) {
	src := `
aggregate N(u) := count(*) over e where e.health > 5 and e.health > 3;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeAlwaysTrue)
	if diags[0].Line != 2 {
		t.Errorf("SGL007 at line %d, want 2", diags[0].Line)
	}
}

func TestOrArmsAnalyzedIndependently(t *testing.T) {
	// Each arm is feasible on its own; the union must not be merged into
	// one empty interval.
	src := `
aggregate N(u) := count(*) over e where e.health <= 8 or e.health >= 25;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	for _, d := range lintScript(t, src) {
		if d.Code == CodeAlwaysFalse || d.Code == CodeAlwaysTrue {
			t.Errorf("disjunction misanalyzed: %s", d)
		}
	}
}

func TestNegationIsNotFlagged(t *testing.T) {
	src := `
aggregate N(u) := count(*) over e where not (e.health > 5 and e.health < 3);
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`
	for _, d := range lintScript(t, src) {
		if d.Code == CodeAlwaysFalse {
			t.Errorf("negated unsat conjunction flagged as unsat: %s", d)
		}
	}
}

func TestDeadDefinitionIsSGL008(t *testing.T) {
	src := `
aggregate Unused(u) := count(*) over e;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function helper(u) { perform Tag(u, 1) }
function main(u) { perform Tag(u, 0) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeDeadDef)
	var names []string
	for _, d := range diags {
		names = append(names, d.Msg)
	}
	joined := strings.Join(names, "\n")
	if !strings.Contains(joined, "Unused") || !strings.Contains(joined, "helper") {
		t.Errorf("dead Unused and helper not both reported:\n%s", joined)
	}
}

func TestDeadLetIsSGL009(t *testing.T) {
	src := `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let x = 1) perform Tag(u, 2) }`
	wantCodes(t, lintScript(t, src), CodeDeadLet)
}

func TestDeadParamIsSGL010ButUnitParamIsExempt(t *testing.T) {
	src := `
aggregate Everyone(u) := count(*) over e;
action Tag(u, v, w) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Everyone(u), 3) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeDeadParam)
	if !strings.Contains(diags[0].Msg, "parameter w") {
		t.Errorf("SGL010 should name w, got: %s", diags[0].Msg)
	}
}

func TestDeadOutputColumnIsSGL011(t *testing.T) {
	src := `
aggregate Stats(u) := count(*) as n, sum(e.health) as hp over e where e.player = u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let s = Stats(u)) perform Tag(u, s.n) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeDeadOutput)
	if !strings.Contains(diags[0].Msg, "hp") {
		t.Errorf("SGL011 should name hp, got: %s", diags[0].Msg)
	}
}

func TestRecordUseReadsEveryColumn(t *testing.T) {
	// Passing the record variable whole (record expansion) uses all
	// columns — no SGL011.
	src := `
aggregate Stats(u) := count(*) as n, sum(e.health) as hp over e where e.player = u.player;
action Tag(u, a, b) := on e where e.key = u.key set damage = a + b;
function main(u) { (let s = Stats(u)) perform Tag(u, s) }`
	for _, d := range lintScript(t, src) {
		if d.Code == CodeDeadOutput {
			t.Errorf("record expansion misread as dead column: %s", d)
		}
	}
}

func TestDeadConstIsSGL012ScriptModeOnly(t *testing.T) {
	src := `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, _SPEED) }`
	consts := map[string]float64{"_SPEED": 2, "_RANGE": 7}
	diags := Lint(src, Options{
		Mode: ModeScript, Schema: game.Schema(),
		Consts: consts, Categoricals: game.Categoricals(),
	})
	wantCodes(t, diags, CodeDeadConst)
	if !strings.Contains(diags[0].Msg, "_RANGE") {
		t.Errorf("SGL012 should name RANGE, got: %s", diags[0].Msg)
	}

	qdiags := Lint(`aggregate N(u) := count(*) over e;`, Options{
		Mode: ModeQuery, Schema: game.Schema(),
		Consts: consts, Categoricals: game.Categoricals(),
	})
	for _, d := range qdiags {
		if d.Code == CodeDeadConst {
			t.Errorf("SGL012 must not fire in query mode: %s", d)
		}
	}
}

func TestResidualConditionIsSGL101(t *testing.T) {
	src := `
aggregate Odd(u) := count(*) over e where e.posx + e.posy > u.posx;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, Odd(u)) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeResidual)
	if diags[0].Line != 2 {
		t.Errorf("SGL101 anchored at line %d, want 2 (the residual conjunct)", diags[0].Line)
	}
}

func TestScanActionIsSGL101(t *testing.T) {
	src := `
action Curse(u) := on e where e.posx * e.posy > 10 set damage = 1;
function main(u) { perform Curse(u) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeResidual)
	if !strings.Contains(diags[0].Msg, "Curse") {
		t.Errorf("SGL101 should name the action: %s", diags[0].Msg)
	}
}

// TestSGL102Retired: SGL102 flagged a query whose maintained answer
// rederived instead of patching. No answer is maintained any more, so no
// query — divisible or not — draws it, and the code is never reused.
func TestSGL102Retired(t *testing.T) {
	for _, src := range []string{
		`aggregate Weakest(u) := min(e.health) over e where e.player = u.player;`,
		`aggregate Near(u) := nearestkey() as key, nearestdist() as dist over e;`,
		`aggregate Frail(u) := argmin(e.health) as key over e;`,
		`aggregate Hurt(u) := count(*) over e where e.health <= 50;`,
	} {
		for _, d := range lintQuery(t, src) {
			if d.Code == "SGL102" {
				t.Errorf("%s: retired code reported: %s", src, d)
			}
		}
	}
}

func TestTrappedPushableConjunctIsSGL103(t *testing.T) {
	// u.cooldown = 0 reads no extension: split into its own if it would
	// run before the Foes probe, but sharing the guard with n > 3 traps
	// it behind the probe.
	src := `
aggregate Foes(u) := count(*) over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let n = Foes(u)) { if n > 3 and u.cooldown = 0 then perform Tag(u, n) } }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeGuardBlocked)
	if !strings.Contains(diags[0].Msg, "u.cooldown") {
		t.Errorf("SGL103 should name the trapped conjunct: %s", diags[0].Msg)
	}
}

func TestGuardReadingOnlyProbeResultHasNoSGL103(t *testing.T) {
	// A guard that reads the probe's own result cannot run anywhere else
	// — not a finding.
	src := `
aggregate Foes(u) := count(*) over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let n = Foes(u)) { if n > 3 then perform Tag(u, n) } }`
	for _, d := range lintScript(t, src) {
		if d.Code == CodeGuardBlocked {
			t.Errorf("probe-result guard flagged SGL103: %s", d)
		}
	}
}

func TestGuardBeforeProbeHasNoSGL103(t *testing.T) {
	// u-only guard in its own if: pushdown hoists it above the probe.
	src := `
aggregate Foes(u) := count(*) over e where e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { if u.cooldown = 0 then (let n = Foes(u)) perform Tag(u, n) }`
	for _, d := range lintScript(t, src) {
		if d.Code == CodeGuardBlocked {
			t.Errorf("hoistable guard flagged SGL103: %s", d)
		}
	}
}

func TestScanOutputIsSGL104(t *testing.T) {
	src := `
aggregate WeakestEast(u) := min(e.health) over e where e.posx >= u.posx and e.player <> u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, WeakestEast(u)) }`
	diags := lintScript(t, src)
	wantCodes(t, diags, CodeScanOutput)
	if !strings.Contains(diags[0].Msg, "min") {
		t.Errorf("SGL104 should name the output: %s", diags[0].Msg)
	}
}

func TestQueryModeDeadAggIsSGL008WithEntryPointHint(t *testing.T) {
	src := `
aggregate First(u) := count(*) over e;
aggregate Second(u) := sum(e.health) over e;`
	diags := lintQuery(t, src)
	found := false
	for _, d := range diags {
		if d.Code == CodeDeadDef {
			found = true
			if !strings.Contains(d.Msg, "entry point") {
				t.Errorf("query-mode SGL008 should explain the entry rule: %s", d.Msg)
			}
			if d.Line != 2 {
				t.Errorf("dead aggregate is First at line 2, got line %d", d.Line)
			}
		}
	}
	if !found {
		t.Error("non-entry aggregate not reported dead in query mode")
	}
}

func TestDiagnosticsAreSortedAndStable(t *testing.T) {
	src := `
aggregate Unused(u) := count(*) over e;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { (let x = 1) perform Tag(u, 1 / 0) }`
	a := lintScript(t, src)
	b := lintScript(t, src)
	if !reflect.DeepEqual(a, b) {
		t.Error("lint output is not deterministic")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Line < a[i-1].Line {
			t.Errorf("diagnostics out of order: %s before %s", a[i-1], a[i])
		}
	}
}

func TestDiagnosticJSONShape(t *testing.T) {
	diags := lintScript(t, `
aggregate N(u) := count(*) over e where 1 > 2;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, N(u)) }`)
	raw, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	d := decoded[0]
	for _, k := range []string{"code", "severity", "line", "col", "msg"} {
		if _, ok := d[k]; !ok {
			t.Errorf("JSON diagnostic missing %q: %v", k, d)
		}
	}
	if _, leaked := d["Pos"]; leaked {
		t.Error("internal Pos field leaked into JSON")
	}
}
