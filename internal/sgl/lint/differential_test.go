package lint

import (
	"fmt"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/workload"
)

// TestLintClassificationMatchesRuntime is the consistency contract
// between static analysis and execution: for the built-in script and
// every zoo program, the classification lint computes (its own
// exec.NewAnalyzer) must byte-match the classification the live engine
// runs with (engine.Analyzer()), and the pipeline placement lint reads
// (a fresh Translate→Optimize→Report) must byte-match the report of the
// plan the engine actually compiled (engine.Plan()). Both sides render
// through the same functions — formatClassification and
// formatReports — so a divergence is a real analyzer/optimizer
// drift, not a formatting difference.
func TestLintClassificationMatchesRuntime(t *testing.T) {
	type program struct {
		name   string
		src    string
		consts map[string]float64
	}
	programs := []program{{"builtin", game.Script, game.Consts()}}
	for _, p := range exec.Zoo {
		programs = append(programs, program{"zoo/" + p.Name, p.Src, nil})
	}

	rows := workload.Generate(workload.Spec{Units: 64, Density: 0.02, Seed: 11, Formation: workload.BattleLines})
	for _, p := range programs {
		script, err := parser.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.name, err)
		}
		prog, err := sem.Check(script, game.Schema(), p.consts)
		if err != nil {
			t.Fatalf("%s: check: %v", p.name, err)
		}

		// Static side: exactly what the linter consults.
		staticClass := formatClassification(exec.NewAnalyzer(prog, game.Categoricals()), prog)
		plan, err := algebra.Translate(prog)
		if err != nil {
			t.Fatalf("%s: translate: %v", p.name, err)
		}
		staticRep, err := algebra.Report(prog, algebra.Optimize(plan))
		if err != nil {
			t.Fatalf("%s: static report: %v", p.name, err)
		}

		// Runtime side: the engine's own analyzer and compiled plan.
		eng, err := engine.New(prog, game.NewMechanics(), rows.Clone(), engine.Options{
			Mode:         engine.Indexed,
			Categoricals: game.Categoricals(),
			Seed:         11,
			Side:         64,
			MoveSpeed:    1,
		})
		if err != nil {
			t.Fatalf("%s: engine: %v", p.name, err)
		}
		liveClass := formatClassification(eng.Analyzer(), prog)
		liveRep, err := algebra.Report(prog, eng.Plan())
		if err != nil {
			t.Fatalf("%s: live report: %v", p.name, err)
		}

		if staticClass != liveClass {
			t.Errorf("%s: classification drift between lint and engine\nlint:\n%s\nengine:\n%s", p.name, staticClass, liveClass)
		}
		if got, want := formatReports(liveRep), formatReports(staticRep); got != want {
			t.Errorf("%s: pipeline drift between lint and engine\nlint:\n%s\nengine:\n%s", p.name, want, got)
		}
	}
}

// formatClassification renders an analyzer's verdict for every definition
// of the program in declaration order, in a canonical diffable form. The
// differential consistency test renders lint's analyzer and the live
// engine's analyzer through this one function and byte-compares the two.
func formatClassification(an *exec.Analyzer, prog *sem.Program) string {
	var b strings.Builder
	for _, def := range prog.Script.Aggs {
		a := an.Agg(def)
		fmt.Fprintf(&b, "agg %s indexable=%v eqs=%d axes=%d residual=%d outputs=", def.Name, a.Indexable, len(a.Eqs), len(a.Axes), len(a.Residual))
		parts := make([]string, len(def.Outputs))
		for i, out := range def.Outputs {
			parts[i] = out.As + ":" + a.OutClass[i].String()
		}
		b.WriteString(strings.Join(parts, ","))
		b.WriteByte('\n')
	}
	for _, def := range prog.Script.Acts {
		a := an.Act(def)
		fmt.Fprintf(&b, "act %s class=%s residual=%d deferrable=%v\n", def.Name, a.Class, len(a.Residual), a.Deferrable)
	}
	return b.String()
}

// formatReports renders a report list as one canonical string.
func formatReports(reports []algebra.PipelineReport) string {
	var b strings.Builder
	for i := range reports {
		b.WriteString(reports[i].String())
	}
	return b.String()
}
