// Package lint is a minimal, dependency-free reimplementation of the
// go/analysis model (the x/tools module is deliberately not a
// dependency — the repo is stdlib-only) carrying the engine's
// determinism analyzers. The analyzers guard the property every
// exactness contract in this repo rests on: a tick is a pure function
// of (environment, seed, tick counter), so replay, checkpoint
// round-trips, and the serial-vs-parallel differential all compare
// byte-identical runs.
//
// Three things break that purity in Go and are therefore banned in the
// determinism-critical packages (see Critical):
//
//   - wall-clock reads (time.Now / Since / Until) — NoWallClock
//   - the global, OS-seeded math/rand generators — NoMathRand
//   - iterating a map in a way whose order can reach results — MapRange
//
// Map iteration is the only one with a legitimate escape: an iteration
// whose effect is order-independent (a fold into max/sum, a collect-
// then-sort) may be annotated on the line above (or at the end of) the
// range statement:
//
//	//sgl:unordered keys are collected and sorted below
//	for k := range m {
//
// The reason is mandatory; an annotation without one is itself a
// diagnostic. The analyzers run over product code only — _test.go files
// are exempt, since tests measure wall time and fuzz with real entropy
// on purpose.
//
// Command sglvet-go adapts these analyzers to the `go vet -vettool`
// unitchecker protocol so they run across the whole repo in CI.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one analysis: a name (which is also its CLI
// flag in sglvet-go), a doc sentence, and the run function.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package. Report
// delivers diagnostics; the driver decides how to render them.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)
}

// A Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Analyzers returns the determinism suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{NoWallClock, NoMathRand, MapRange}
}

// criticalPkgs are the import paths (and, for index, the subtree) whose
// code must be a pure function of (environment, seed, tick): the tick
// executor, the streaming/indexed evaluators, the plan optimizer, the
// expression compiler whose closures all of those evaluate through, the
// deterministic random source, and every spatial index.
var criticalPkgs = []string{
	"github.com/epicscale/sgl/internal/engine",
	"github.com/epicscale/sgl/internal/exec",
	"github.com/epicscale/sgl/internal/algebra",
	"github.com/epicscale/sgl/internal/sgl/expr",
	"github.com/epicscale/sgl/internal/rng",
	"github.com/epicscale/sgl/internal/index",
}

// Critical reports whether importPath is determinism-critical: one of
// the critical packages or anything under them. Test binaries and
// external test packages (".test" / "_test" suffixed paths) are not —
// tests measure wall time and use entropy on purpose.
func Critical(importPath string) bool {
	if strings.HasSuffix(importPath, ".test") || strings.HasSuffix(importPath, "_test") {
		return false
	}
	for _, p := range criticalPkgs {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// NoWallClock bans wall-clock reads. Any mention of time.Now,
// time.Since, or time.Until — called or passed as a value — makes the
// enclosing computation depend on when it ran, not on the tick.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "forbid time.Now/Since/Until in determinism-critical packages (derive time from the tick counter)",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			if isTestFile(pass.Fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj := pass.Info.Uses[sel.Sel]
				if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
					return true
				}
				switch obj.Name() {
				case "Now", "Since", "Until":
					pass.Report(Diagnostic{
						Pos:     sel.Pos(),
						Message: "time." + obj.Name() + " reads the wall clock and breaks tick determinism; derive time from the tick counter",
					})
				}
				return true
			})
		}
		return nil
	},
}

// NoMathRand bans math/rand (v1 and v2) entirely: both packages seed
// from the OS by default, and even seeded they are process-global
// mutable state that evaluation order can reach. internal/rng is the
// replacement — counter-based, stateless, a pure function of
// (seed, tick, unit, i).
var NoMathRand = &Analyzer{
	Name: "nomathrand",
	Doc:  "forbid math/rand imports in determinism-critical packages (use internal/rng)",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			if isTestFile(pass.Fset, f.Pos()) {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == "math/rand" || path == "math/rand/v2" {
					pass.Report(Diagnostic{
						Pos:     imp.Pos(),
						Message: "import of " + path + " is nondeterministic (OS-seeded, process-global); use internal/rng",
					})
				}
			}
		}
		return nil
	},
}

// MapRange flags `for … range m` over a map unless the statement is
// annotated `//sgl:unordered <reason>` on the preceding line or at the
// end of the range line. Go randomizes map iteration order per run, so
// any unannotated map loop is a latent replay divergence.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "forbid unannotated map iteration in determinism-critical packages (sort keys, or annotate //sgl:unordered <reason>)",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			if isTestFile(pass.Fset, f.Pos()) {
				continue
			}
			notes := unorderedNotes(pass.Fset, f)
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rs.X]
				if !ok || tv.Type == nil {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				line := pass.Fset.Position(rs.For).Line
				reason, annotated := notes[line]
				if !annotated {
					reason, annotated = notes[line-1]
				}
				switch {
				case !annotated:
					pass.Report(Diagnostic{
						Pos:     rs.For,
						Message: "map iteration order is randomized per run; sort the keys, or annotate //sgl:unordered <reason> if order cannot reach results",
					})
				case reason == "":
					pass.Report(Diagnostic{
						Pos:     rs.For,
						Message: "//sgl:unordered needs a reason explaining why iteration order cannot reach results",
					})
				}
				return true
			})
		}
		return nil
	},
}

// unorderedNotes collects the file's //sgl:unordered annotations by the
// line each comment ends on, mapped to the (possibly empty) reason.
func unorderedNotes(fset *token.FileSet, f *ast.File) map[int]string {
	const directive = "//sgl:unordered"
	notes := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text != directive && !strings.HasPrefix(c.Text, directive+" ") {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, directive))
			notes[fset.Position(c.End()).Line] = reason
		}
	}
	return notes
}
