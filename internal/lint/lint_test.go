package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// fakeStdlib builds just enough of the stdlib's type information for
// the analyzers: a "time" package exporting Now/Since/Until/Sleep and a
// "math/rand" package exporting Intn. The analyzers resolve symbols
// through types.Info, so fakes with the right package paths are
// indistinguishable from the real thing — and the test needs no
// export data on disk.
type fakeStdlib struct{}

func (fakeStdlib) Import(path string) (*types.Package, error) {
	pkg := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	scope := pkg.Scope()
	intVar := func() *types.Var {
		return types.NewVar(token.NoPos, pkg, "", types.Typ[types.Int])
	}
	// int -> int stands in for every real signature: the analyzers only
	// look at the symbol's package path and name, never its type.
	mkfunc := func(name string) {
		sig := types.NewSignatureType(nil, nil, nil,
			types.NewTuple(intVar()), types.NewTuple(intVar()), false)
		scope.Insert(types.NewFunc(token.NoPos, pkg, name, sig))
	}
	switch path {
	case "time":
		for _, n := range []string{"Now", "Since", "Until", "Sleep"} {
			mkfunc(n)
		}
	case "math/rand", "math/rand/v2":
		mkfunc("Intn")
	default:
		return nil, fmt.Errorf("fake importer: unknown package %q", path)
	}
	pkg.MarkComplete()
	return pkg, nil
}

// analyze type-checks src as one file and runs the analyzer, returning
// diagnostics as "line: message" strings sorted by position.
func analyze(t *testing.T, a *Analyzer, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "crit.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := &types.Config{Importer: fakeStdlib{}}
	pkg, err := conf.Check("github.com/epicscale/sgl/internal/engine", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	var got []string
	pass := &Pass{
		Analyzer: a, Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info,
		Report: func(d Diagnostic) {
			got = append(got, fmt.Sprintf("%d: %s", fset.Position(d.Pos).Line, d.Message))
		},
	}
	if err := a.Run(pass); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got
}

// wantDiags asserts the diagnostics match (line, message-substring)
// pairs exactly — each expected entry must match one diagnostic in
// order, and no extras may remain.
func wantDiags(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d (%v)", len(got), got, len(want), want)
	}
	for i := range want {
		if !strings.Contains(got[i], want[i]) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, got[i], want[i])
		}
	}
}

func TestNoWallClockFiresOnNowSinceUntil(t *testing.T) {
	got := analyze(t, NoWallClock, `package engine

import "time"

func bad() {
	_ = time.Now(0)
	_ = time.Since
	_ = time.Until
	time.Sleep(0) // not a clock READ; sleeping is slow, not nondeterministic
}
`)
	wantDiags(t, got,
		"6: time.Now reads the wall clock",
		"7: time.Since reads the wall clock",
		"8: time.Until reads the wall clock",
	)
}

func TestNoWallClockIgnoresOtherPackagesNamedTime(t *testing.T) {
	// A local identifier named `time` (shadowing) resolves to a non-"time"
	// object, so Now on it must not fire.
	got := analyze(t, NoWallClock, `package engine

type clock struct{}

func (clock) Now() int { return 0 }

func ok() {
	var time clock
	_ = time.Now()
}
`)
	wantDiags(t, got)
}

func TestNoMathRandFiresOnBothVersions(t *testing.T) {
	got := analyze(t, NoMathRand, `package engine

import (
	"math/rand"
	v2 "math/rand/v2"
)

func bad() { _ = rand.Intn(3) + v2.Intn(3) }
`)
	wantDiags(t, got,
		"4: import of math/rand is nondeterministic",
		"5: import of math/rand/v2 is nondeterministic",
	)
}

func TestMapRangeFiresWithoutAnnotation(t *testing.T) {
	got := analyze(t, MapRange, `package engine

func bad(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}
`)
	wantDiags(t, got, "5: map iteration order is randomized")
}

func TestMapRangeAcceptsAnnotationWithReason(t *testing.T) {
	got := analyze(t, MapRange, `package engine

func ok(m map[string]int) int {
	s := 0
	//sgl:unordered sum is a commutative fold
	for _, v := range m {
		s += v
	}
	//sgl:unordered same-line form also counts
	for range m { // trailing placement works too
	}
	return s
}
`)
	wantDiags(t, got)
}

func TestMapRangeRejectsAnnotationWithoutReason(t *testing.T) {
	got := analyze(t, MapRange, `package engine

func shrug(m map[string]int) {
	//sgl:unordered
	for range m {
	}
}
`)
	wantDiags(t, got, "5: //sgl:unordered needs a reason")
}

func TestMapRangeIgnoresSlicesAndNamedMapTypes(t *testing.T) {
	// Slices are ordered; named map types are still maps underneath and
	// must fire.
	got := analyze(t, MapRange, `package engine

type registry map[string]int

func mixed(s []int, r registry) {
	for range s {
	}
	for range r {
	}
}
`)
	wantDiags(t, got, "8: map iteration order is randomized")
}

func TestAnalyzersSkipTestFiles(t *testing.T) {
	fset := token.NewFileSet()
	src := `package engine

func helper(m map[string]int) {
	for range m {
	}
}
`
	f, err := parser.ParseFile(fset, "crit_test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: make(map[ast.Expr]types.TypeAndValue), Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)}
	pkg, err := (&types.Config{Importer: importer.Default()}).Check("github.com/epicscale/sgl/internal/engine", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Analyzer: MapRange, Fset: fset, Files: []*ast.File{f}, Pkg: pkg, Info: info,
		Report: func(d Diagnostic) { t.Errorf("unexpected diagnostic in a _test.go file: %s", d.Message) }}
	if err := MapRange.Run(pass); err != nil {
		t.Fatal(err)
	}
}

func TestCritical(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"github.com/epicscale/sgl/internal/engine", true},
		{"github.com/epicscale/sgl/internal/exec", true},
		{"github.com/epicscale/sgl/internal/algebra", true},
		{"github.com/epicscale/sgl/internal/sgl/expr", true},
		{"github.com/epicscale/sgl/internal/sgl/sem", false},
		{"github.com/epicscale/sgl/internal/rng", true},
		{"github.com/epicscale/sgl/internal/index/grid", true},
		{"github.com/epicscale/sgl/internal/index/kdtree", true},
		{"github.com/epicscale/sgl/internal/server", false},
		{"github.com/epicscale/sgl/internal/engineering", false}, // prefix, not subtree
		{"github.com/epicscale/sgl/internal/engine.test", false},
		{"github.com/epicscale/sgl/internal/engine_test", false},
		{"github.com/epicscale/sgl", false},
	}
	for _, c := range cases {
		if got := Critical(c.path); got != c.want {
			t.Errorf("Critical(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
