package lint

import (
	goast "go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
)

// diagStrings renders diagnostics through Diagnostic.String for golden
// comparison.
func diagStrings(diags []Diagnostic) []string {
	out := []string{}
	for _, d := range diags {
		out = append(out, d.String())
	}
	return out
}

func compareGolden(t *testing.T, name string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d diagnostics, want %d\ngot:  %v\nwant: %v", name, len(got), len(want), got, want)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: diagnostic %d = %q, want %q", name, i, got[i], want[i])
		}
	}
}

// TestBuiltinScriptGolden pins the built-in battle script's only
// finding: _TIME_RELOAD is consumed by the engine-side tick rule
// (Mechanics), not by the script text, so the dead-const check cannot
// see the use. Every other fleet finding in the script itself has been
// fixed (dead count in KnightFormation, dead hp output and the unused
// NearestHealer aggregate around WeakestEnemyInReach).
func TestBuiltinScriptGolden(t *testing.T) {
	diags := Lint(game.Script, Options{
		Mode:         ModeScript,
		Schema:       game.Schema(),
		Consts:       game.Consts(),
		Categoricals: game.Categoricals(),
	})
	compareGolden(t, "builtin", diagStrings(diags), []string{
		"1:1: SGL012 warn: game constant _TIME_RELOAD is never referenced by the script",
	})
}

// zooGoldens pins the zoo fleet. The zoo deliberately exercises every
// executor class, so several programs carry intentional performance
// findings — those are the point of the program, not defects. Programs
// absent from the map must lint clean.
var zooGoldens = map[string][]string{
	"one-sided-minmax-falls-back": {
		"3:3: SGL104 warn: output min of aggregate WeakestEast falls back to a per-probe scan even though the condition is index-usable (min/max over a one-sided range walks the partition)",
	},
	"mixed-output-classes": {
		"3:44: SGL011 warn: output column cx of aggregate Recon is never read at any call site",
	},
	"global-extrema": {
		"3:3: SGL011 warn: output column top of aggregate Best is never read at any call site",
		"4:3: SGL011 warn: output column low of aggregate Best is never read at any call site",
	},
	"carried-answers": {
		"3:3: SGL104 warn: output s of aggregate Lucky falls back to a per-probe scan even though the condition is index-usable (the argument depends on the probe unit or a parameter, so it cannot be precomputed into the index)",
		"6:3: SGL104 warn: output g of aggregate Gap falls back to a per-probe scan even though the condition is index-usable (the argument depends on the probe unit or a parameter, so it cannot be precomputed into the index)",
	},
	"multi-conjunct-greedy": {
		"10:8: SGL103 warn: conjunct u.cooldown = 0 could filter before the index probe of f but is trapped behind it in the pipeline of Tag — test it in an earlier if so the probe skips rejected rows",
		"10:40: SGL103 warn: conjunct u.health > 3 could filter before the index probe of f but is trapped behind it in the pipeline of Tag — test it in an earlier if so the probe skips rejected rows",
		"10:57: SGL103 warn: conjunct u.unittype <> 9 could filter before the index probe of f but is trapped behind it in the pipeline of Tag — test it in an earlier if so the probe skips rejected rows",
	},
}

func TestZooGoldens(t *testing.T) {
	for _, p := range exec.Zoo {
		diags := Lint(p.Src, Options{
			Mode:         ModeScript,
			Schema:       game.Schema(),
			Consts:       nil, // zoo programs are schema-only by design
			Categoricals: game.Categoricals(),
		})
		compareGolden(t, "zoo/"+p.Name, diagStrings(diags), zooGoldens[p.Name])
	}
}

// fleetSource is one SGL source extracted from a Go file's string
// literals.
type fleetSource struct {
	name string // file#index
	src  string
	mode Mode
}

// extractSGL parses a Go source file and returns every string literal
// that looks like an SGL program: script if it declares function main,
// query if it opens with an aggregate definition.
func extractSGL(t *testing.T, path string) []fleetSource {
	t.Helper()
	fset := gotoken.NewFileSet()
	f, err := goparser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	var out []fleetSource
	goast.Inspect(f, func(n goast.Node) bool {
		lit, ok := n.(*goast.BasicLit)
		if !ok || lit.Kind != gotoken.STRING {
			return true
		}
		raw := strings.Trim(lit.Value, "`\"")
		name := filepath.Base(filepath.Dir(path)) + "/" + filepath.Base(path)
		switch {
		case strings.Contains(raw, "function main"):
			out = append(out, fleetSource{name, raw, ModeScript})
		case strings.HasPrefix(strings.TrimSpace(raw), "aggregate "):
			out = append(out, fleetSource{name, raw, ModeQuery})
		}
		return true
	})
	if len(out) == 0 {
		t.Fatalf("no SGL sources found in %s", path)
	}
	for i := range out {
		out[i].name += "#" + string(rune('0'+i))
	}
	return out
}

// fleetAllowlist pins the accepted findings for the example and tier
// scripts, keyed by "dir/file#i: diagnostic". Anything not listed fails
// the test — the fleet stays clean by construction.
//
// The pinned findings are deliberate: the checkpoint example's Zone and
// Closest queries exist to demonstrate the min/max and nearest query
// classes (non-divisible by nature), and the Figure-1 tier scripts plus
// the modding sample mirror the paper's script shapes — restructuring
// their strike guard to hoist u.cooldown above the probe would change
// the measured workloads and the documented example texts to silence a
// warning that is, for a reader, the interesting part.
var fleetAllowlist = map[string]bool{
	"checkpoint/main.go#1: 2:1: SGL102 warn: aggregate Zone is not divisible: a maintained or subscribed query rederives the full answer on every dirty tick instead of patching it (divisible functions: count, sum, avg, stddev, with an index-usable condition)":    true,
	"checkpoint/main.go#2: 2:1: SGL102 warn: aggregate Closest is not divisible: a maintained or subscribed query rederives the full answer on every dirty tick instead of patching it (divisible functions: count, sum, avg, stddev, with an index-usable condition)": true,
	"benchfig/fig1.go#1: 21:19: SGL103 warn: conjunct u.cooldown = 0 could filter before the index probe of w but is trapped behind it in the pipeline of Strike — test it in an earlier if so the probe skips rejected rows":                                          true,
	"benchfig/fig1.go#2: 43:23: SGL103 warn: conjunct u.cooldown = 0 could filter before the index probe of w but is trapped behind it in the pipeline of Strike — test it in an earlier if so the probe skips rejected rows":                                          true,
	"modding/main.go#0: 26:19: SGL103 warn: conjunct u.cooldown = 0 could filter before the index probe of w but is trapped behind it in the pipeline of Strike — test it in an earlier if so the probe skips rejected rows":                                           true,
}

// TestExampleAndTierScriptsClean lints every SGL source embedded in
// the example programs and the Figure-1 tier scripts. The fleet must be
// clean modulo the explicit allowlist above.
func TestExampleAndTierScriptsClean(t *testing.T) {
	files := []string{
		"../../../examples/quickstart/main.go",
		"../../../examples/checkpoint/main.go",
		"../../../examples/modding/main.go",
		"../../../examples/skeletons/main.go",
		"../../../cmd/benchfig/fig1.go",
	}
	var unexpected []string
	for _, path := range files {
		for _, s := range extractSGL(t, path) {
			opts := Options{
				Mode:         s.mode,
				Schema:       game.Schema(),
				Categoricals: game.Categoricals(),
			}
			// Scripts referencing game constants need them to compile;
			// schema-only sources skip them so the dead-const check
			// doesn't flag the whole constant table.
			if strings.Contains(s.src, "_TIME_RELOAD") || strings.Contains(s.src, "_HEAL") ||
				strings.Contains(s.src, "_SPREAD") || strings.Contains(s.src, "_PACK") || strings.Contains(s.src, "_HEALER") {
				opts.Consts = game.Consts()
			}
			for _, d := range Lint(s.src, opts) {
				key := s.name + ": " + d.String()
				if !fleetAllowlist[key] {
					unexpected = append(unexpected, key)
				}
			}
		}
	}
	sort.Strings(unexpected)
	for _, u := range unexpected {
		t.Errorf("unexpected fleet finding: %s", u)
	}
}
