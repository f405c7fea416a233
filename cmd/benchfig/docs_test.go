package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExperimentsDocumented is a documentation gate in the
// TestMarkdownLinks pattern: CLI.md's benchfig section names exactly the
// experiments -experiment accepts, both in its usage block and in the
// flag table — no experiment undocumented, no documented one gone.
func TestExperimentsDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/CLI.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## benchfig\n")
	if !ok {
		t.Fatal("docs/CLI.md has no benchfig section")
	}
	section, _, _ = strings.Cut(section, "\n## ")

	want := []string{"all"}
	for _, x := range experiments {
		want = append(want, x.name)
	}
	slices.Sort(want)

	var usage, table []string
	for _, m := range regexp.MustCompile(`benchfig -experiment (\S+)`).FindAllStringSubmatch(section, -1) {
		usage = append(usage, m[1])
	}
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `-experiment` |") {
			for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllStringSubmatch(line, -1) {
				table = append(table, m[1])
			}
		}
	}
	for name, got := range map[string][]string{"usage block": usage, "flag table": table} {
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("docs/CLI.md benchfig %s lists experiments %v, want %v", name, got, want)
		}
	}
}
