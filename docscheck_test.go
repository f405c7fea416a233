package sgl_test

// Documentation gates, run as ordinary tests so CI enforces them:
//
//   - TestGodocCoverage fails if any exported symbol of the public sgl
//     package (or the package itself) lacks a doc comment;
//   - TestMarkdownLinks fails if any markdown file in the repository
//     contains a relative link to a file that does not exist;
//   - TestDocsNameLiveMethods fails if docs/*.md or the package doc cites
//     an Engine, Session or ReadView member that does not exist;
//   - TestTickPipelineDocumented fails if the tick pipeline in
//     docs/ARCHITECTURE.md and the phases engine.Tick calls differ.

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/epicscale/sgl"
)

// TestGodocCoverage enforces the godoc contract on the public surface:
// every exported const, var, type, function, and method of package sgl
// carries a doc comment, and the package has a package-level overview.
func TestGodocCoverage(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["sgl"]
	if !ok {
		t.Fatalf("package sgl not found in .; got %v", pkgs)
	}
	d := doc.New(pkg, "github.com/epicscale/sgl", 0)

	if strings.TrimSpace(d.Doc) == "" {
		t.Error("package sgl has no package-level doc comment")
	}
	undocumented := func(kind, name, docText string) {
		if strings.TrimSpace(docText) == "" {
			t.Errorf("exported %s %s has no doc comment", kind, name)
		}
	}
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				if ast.IsExported(name) {
					// A doc comment on the declaration group covers all
					// its names, matching how godoc renders it.
					undocumented(kind, name, v.Doc)
					break
				}
			}
		}
	}
	values("const", d.Consts)
	values("var", d.Vars)
	for _, f := range d.Funcs {
		if ast.IsExported(f.Name) {
			undocumented("func", f.Name, f.Doc)
		}
	}
	for _, typ := range d.Types {
		if ast.IsExported(typ.Name) {
			undocumented("type", typ.Name, typ.Doc)
		}
		values("const", typ.Consts)
		values("var", typ.Vars)
		for _, f := range typ.Funcs {
			if ast.IsExported(f.Name) {
				undocumented("func", f.Name, f.Doc)
			}
		}
		for _, m := range typ.Methods {
			if ast.IsExported(m.Name) {
				undocumented("method", typ.Name+"."+m.Name, m.Doc)
			}
		}
	}
}

// mdLinkRE matches [text](target) markdown links. Images (![…](…), e.g.
// figures embedded by the paper-retrieval tooling) are excluded by
// checking the preceding byte at each match — a regex guard like
// (?:^|[^!]) would consume that byte and skip the second of two
// adjacent links. Reference links are out of scope; inline links are
// what the docs use.
var mdLinkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownLinks walks every .md file in the repository and verifies
// that each relative link target exists. External URLs are skipped (CI
// should not depend on the network); #fragments are stripped.
func TestMarkdownLinks(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var mdFiles []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", "sgld-data":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — link checker is miswired")
	}

	checked := 0
	for _, file := range mdFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		content := string(data)
		for _, m := range mdLinkRE.FindAllStringSubmatchIndex(content, -1) {
			if m[0] > 0 && content[m[0]-1] == '!' {
				continue // image link
			}
			target := content[m[2]:m[3]]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // pure fragment link within the same file
			}
			resolved := filepath.Join(filepath.Dir(file), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				rel, _ := filepath.Rel(root, file)
				t.Errorf("%s: broken link %q (resolved %s)", rel, target, resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Log("no relative links found (nothing to check)")
	}
}

// TestMdLinkExtraction pins the link-matching edge cases: adjacent
// links are both seen, and image links are skipped via the preceding
// byte (not a consuming regex guard, which would hide the second of
// two adjacent links).
func TestMdLinkExtraction(t *testing.T) {
	content := `[a](one.md)[b](two.md) ![fig](img.jpeg) [c](three.md)`
	var got []string
	for _, m := range mdLinkRE.FindAllStringSubmatchIndex(content, -1) {
		if m[0] > 0 && content[m[0]-1] == '!' {
			continue
		}
		got = append(got, content[m[2]:m[3]])
	}
	want := []string{"one.md", "two.md", "three.md"}
	if len(got) != len(want) {
		t.Fatalf("extracted %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("link %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// memberRE matches a cited member of the three types whose API the docs
// teach: Engine.X, Session.X and ReadView.X.
var memberRE = regexp.MustCompile(`\b(Engine|Session|ReadView)\.([A-Z]\w*)`)

// TestDocsNameLiveMethods checks every Engine, Session and ReadView member
// cited in docs/*.md and the package doc against the types themselves, by
// reflection: a method (or exported field) that was renamed or deleted
// must not live on in the prose that teaches it.
func TestDocsNameLiveMethods(t *testing.T) {
	types := map[string]reflect.Type{
		"Engine":   reflect.TypeOf((*sgl.Engine)(nil)),
		"Session":  reflect.TypeOf((*sgl.Session)(nil)),
		"ReadView": reflect.TypeOf((*sgl.ReadView)(nil)),
	}
	files, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "sgl.go")
	cited := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range memberRE.FindAllStringSubmatch(string(data), -1) {
			typ, name := types[m[1]], m[2]
			_, method := typ.MethodByName(name)
			_, field := typ.Elem().FieldByName(name)
			if !method && !field {
				t.Errorf("%s cites %s.%s, which does not exist", file, m[1], name)
			}
			cited++
		}
	}
	if cited == 0 {
		t.Fatal("no Engine, Session or ReadView member cited — the check is miswired")
	}
}

// tickHelpers are the engine methods Engine.Tick calls that are not
// phases of the tick pipeline, each with the reason.
var tickHelpers = map[string]string{
	"tickAccumulator": "fetches the effect accumulator decide folds into",
}

// TestTickPipelineDocumented pins the numbered list under "The tick
// pipeline" in docs/ARCHITECTURE.md to Engine.Tick: every item must cite
// at least one phase, and the engine methods the list cites in
// backticks, in order, must be the methods Tick calls on its receiver,
// in source order, less tickHelpers. A phase added, dropped or reordered
// in either place fails.
func TestTickPipelineDocumented(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, filepath.Join("internal", "engine"), func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]bool{} // every method declared on *Engine
	var phases []string
	helpers := map[string]bool{}
	for _, f := range pkgs["engine"].Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); !ok || star.X.(*ast.Ident).Name != "Engine" {
				continue
			}
			methods[fd.Name.Name] = true
			if fd.Name.Name != "Tick" {
				continue
			}
			recv := fd.Recv.List[0].Names[0].Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
						if _, skip := tickHelpers[sel.Sel.Name]; skip {
							helpers[sel.Sel.Name] = true
						} else {
							phases = append(phases, sel.Sel.Name)
						}
					}
				}
				return true
			})
		}
	}
	if len(phases) == 0 {
		t.Fatal("found no phase calls in Engine.Tick — the check is miswired")
	}
	for name := range tickHelpers {
		if !helpers[name] {
			t.Errorf("tickHelpers lists %s, which Engine.Tick no longer calls", name)
		}
	}

	data, err := os.ReadFile(filepath.Join("docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## The tick pipeline\n")
	if !ok {
		t.Fatal("docs/ARCHITECTURE.md has no \"The tick pipeline\" section")
	}
	// The list's items: a line opening "N. " starts one, indented lines
	// continue it, and the first other non-blank line ends the list.
	var items []string
scan:
	for _, line := range strings.Split(section, "\n") {
		switch {
		case itemRE.MatchString(line):
			items = append(items, line)
		case len(items) > 0 && strings.HasPrefix(line, "   "):
			items[len(items)-1] += " " + line
		case len(items) > 0 && strings.TrimSpace(line) != "":
			break scan
		}
	}
	var cited []string
	for i, item := range items {
		n := len(cited)
		for _, m := range codeRE.FindAllStringSubmatch(item, -1) {
			if methods[m[1]] {
				cited = append(cited, m[1])
			}
		}
		if len(cited) == n {
			t.Errorf("tick pipeline item %d cites no phase method: %.60s…", i+1, item)
		}
	}
	t.Logf("Engine.Tick's phases: %v", phases)
	if !slices.Equal(cited, phases) {
		t.Errorf("docs/ARCHITECTURE.md's tick pipeline cites the phases\n\t%v\nbut Engine.Tick calls\n\t%v", cited, phases)
	}
}

var (
	itemRE = regexp.MustCompile(`^\d+\. `)
	codeRE = regexp.MustCompile("`([A-Za-z_]\\w*)`")
)
