package sgl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported funcs and methods under internal/
// that no other product file names, each with the reason it stays. A
// reason is one of: a test oracle or reference; an ablation baseline a
// documented benchmark runs; public API the docs or sgl.go name; an
// entry point bench/ compiles against; a method an interface needs; or
// a helper whose only product callers share its file. Anything else
// that only tests reach belongs in a _test.go file, or nowhere.
var testOnlyAllowed = map[string]string{
	"algebra.NewExecutor":               "test reference: the compiled full tick; bench/ compiles against it",
	"algebra.Executor.Tick":             "test reference: the compiled full tick the walker is compared with",
	"engine.Session.Journal":            "public API: ARCHITECTURE names it",
	"engine.Engine.Plan":                "bench/ compiles against it",
	"engine.Engine.Analyzer":            "bench/ compiles against it",
	"engine.Session.QueryMaintained":    "bench/ compiles against it",
	"exec.Indexed.Freeze":               "bench/ compiles against it",
	"exec.Delta.Frac":                   "bench/ compiles against it",
	"rng.Source.Intn":                   "bench/ compiles against it",
	"rng.Source.Float64":                "bench/ compiles against it",
	"grid.Build":                        "ablation baseline: BenchmarkAggIndexAblationGrid",
	"grid.Index.Aggregate":              "ablation baseline: BenchmarkAggIndexAblationGrid",
	"grid.Occupancy.Occupied":           "test oracle: the engine's occupancy differential reads through it",
	"grid.Occupancy.Size":               "test oracle: the engine's occupancy differential reads through it",
	"rangetree.Tree.AggregateNoCascade": "ablation baseline: BenchmarkAggIndexAblationNoCascade",
	"sorted.Guide.Equal":                "test oracle: the rebuild differentials compare guides with it",
	"interp.RunTickNaive":               "test oracle: the walker's full tick",
	"interp.Evaluator.EvalTerm":         "test oracle: the walker's term entry",
	"interp.Evaluator.EvalCond":         "test oracle: the walker's condition entry",
	"interp.EvalDefTermWith":            "test oracle: the walker's definition-term entry",
	"table.Table.EqualContents":         "test oracle: exact multiset equality",
	"interp.Evaluator.RunUnit":          "test oracle: the walker's per-unit run, which Evaluator.Tick shares",
	"algebra.Executor.Effects":          "bench/ compiles against it; Executor.Tick shares its file",
	"rangetree.Build":                   "BenchmarkIndexBuild8000 (A5) times it; AggregateOnce shares its file",
	"table.WriteTemp":                   "crash_test stages torn writes through it; WriteFileAtomic shares its file",
	"engine.CommandOp.MarshalJSON":      "interface method: encoding/json calls it",
	"engine.CommandOp.UnmarshalJSON":    "interface method: encoding/json calls it",
	"expr.Def.RandomRow":                "interface method: expr.Scope",
}

// TestNoTestOnlyExports fails when an exported func or method declared
// in a non-test file under internal/ is named by no other non-test Go
// file of the module, outside its own declaration: product code that
// only tests reach. It matches by name with go/parser alone, so a name
// shared with a used function hides an unused one; it errs towards
// passing, never towards a false failure on live code.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, file string
		name      string
	}
	var decls []decl
	names := map[string]map[string]bool{} // file → identifiers it names
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(path, "internal"+string(filepath.Separator)) {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				typ := fd.Recv.List[0].Type
				if st, ok := typ.(*ast.StarExpr); ok {
					typ = st.X
				}
				if ix, ok := typ.(*ast.IndexExpr); ok {
					typ = ix.X
				}
				id, ok := typ.(*ast.Ident)
				if !ok || !id.IsExported() {
					continue // a method of an unexported type is reached through an interface or not at all
				}
				key += id.Name + "."
			}
			decls = append(decls, decl{key: key + fd.Name.Name, file: path, name: fd.Name.Name})
		}
		used := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		names[path] = used
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	seen := map[string]bool{}
	for _, d := range decls {
		named := false
		for file, used := range names {
			if file != d.file && used[d.name] {
				named = true
				break
			}
		}
		seen[d.key] = true
		if named {
			continue
		}
		if _, ok := testOnlyAllowed[d.key]; !ok {
			unreached = append(unreached, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s: exported, but no other product file names it — delete it, move it into a _test.go file, or allowlist it with its reason", u)
	}
	for key, reason := range testOnlyAllowed {
		if reason == "" {
			t.Errorf("allowlist entry %s carries no reason", key)
		}
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported func under internal/", key)
		}
	}
}
