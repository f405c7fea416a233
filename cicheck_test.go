package sgl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runPatternRE finds a go test invocation's quoted -run pattern and the
// rest of its line, where the package paths are.
var runPatternRE = regexp.MustCompile(`go test .*-run '([^']*)'(.*)$`)

// TestCIRunPatternsNameTests fails when an alternative of a quoted
// -run pattern in the CI workflow names no Test or Fuzz function of the
// package the step runs: such a step passes while running nothing, so a
// renamed or deleted test silently leaves the gate that named it.
// Alternatives match unanchored, as go test matches them.
func TestCIRunPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{} // package dir → its Test and Fuzz funcs
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		m := runPatternRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var dirs []string
		for _, arg := range strings.Fields(m[2]) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				dirs = append(dirs, filepath.Clean(arg))
			}
		}
		if len(dirs) == 0 {
			t.Errorf("ci.yml:%d: -run '%s' names no package", i+1, m[1])
			continue
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("ci.yml:%d: alternative %q: %v", i+1, alt, err)
				continue
			}
			found := false
			for _, dir := range dirs {
				if funcs[dir] == nil {
					funcs[dir] = testFuncs(t, dir)
				}
				for _, name := range funcs[dir] {
					found = found || re.MatchString(name)
				}
			}
			if !found {
				t.Errorf("ci.yml:%d: -run alternative %q names no Test or Fuzz func in %s", i+1, alt, strings.Join(dirs, " "))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern in ci.yml — the check is miswired")
	}
}

// testFuncs lists the Test and Fuzz functions of dir's test files.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
					names = append(names, fd.Name.Name)
				}
			}
		}
	}
	return names
}
