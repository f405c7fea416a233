package lint

import (
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
// through the same functions — FormatClassification and
// algebra.FormatReports — so a divergence is a real analyzer/optimizer
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
		staticClass := FormatClassification(exec.NewAnalyzer(prog, game.Categoricals()), prog)
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
		liveClass := FormatClassification(eng.Analyzer(), prog)
		liveRep, err := algebra.Report(prog, eng.Plan())
		if err != nil {
			t.Fatalf("%s: live report: %v", p.name, err)
		}

		if staticClass != liveClass {
			t.Errorf("%s: classification drift between lint and engine\nlint:\n%s\nengine:\n%s", p.name, staticClass, liveClass)
		}
		if got, want := algebra.FormatReports(liveRep), algebra.FormatReports(staticRep); got != want {
			t.Errorf("%s: pipeline drift between lint and engine\nlint:\n%s\nengine:\n%s", p.name, want, got)
		}
	}
}
