// Command sglc is the SGL compiler front end: it parses and type-checks a
// script against the battle-simulation schema, prints the optimized query
// plan, and reports how the optimizer classified every aggregate and
// action definition (which index structure will serve it).
//
// Usage:
//
//	sglc [-explain] [-classify] [-no-opt] [-vet] script.sgl
//	sglc -builtin            # inspect the built-in battle script
//	sglc -upgrade [-script file] in out
//
// -vet additionally runs the lint diagnostics engine (the same rules as
// the sglvet command) and prints its findings after the plan.
//
// -upgrade rewrites the checkpoint in, written in any older format
// version, as the current version in out — the one layout engine.Open
// reads. A version-1 checkpoint predates the embedded script and needs
// -script, the battle-schema script it ran. The pending commands of a
// version 2–4 checkpoint preceded the decision of its own tick; version 5
// applies a batch at the commit before the decision it precedes, so the
// rewrite applies them, and the world continues exactly as it would have.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/lint"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

func main() {
	explain := flag.Bool("explain", true, "print the compiled query plan")
	classify := flag.Bool("classify", true, "print per-definition index classification")
	noOpt := flag.Bool("no-opt", false, "skip the algebraic optimizer")
	builtin := flag.Bool("builtin", false, "compile the built-in battle script instead of a file")
	vet := flag.Bool("vet", false, "run the lint diagnostics engine and print its findings")
	upgrade := flag.Bool("upgrade", false, "rewrite the checkpoint <in> as the current format in <out>")
	scriptFile := flag.String("script", "", "with -upgrade: the script a version-1 checkpoint ran")
	flag.Parse()

	if *upgrade {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: sglc -upgrade [-script file] in out")
			os.Exit(2)
		}
		if err := upgradeFile(flag.Arg(0), flag.Arg(1), *scriptFile); err != nil {
			fatal(err)
		}
		return
	}

	var path string // empty: the built-in script
	switch {
	case *builtin:
	case flag.NArg() == 1:
		path = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: sglc [-explain] [-classify] [-no-opt] script.sgl | sglc -builtin")
		os.Exit(2)
	}

	prog, src, err := compileScript(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ok: %d aggregate(s), %d action(s), %d function(s)\n\n",
		len(prog.Script.Aggs), len(prog.Script.Acts), len(prog.Script.Funcs))

	if *classify {
		an := exec.NewAnalyzer(prog, game.Categoricals())
		fmt.Println("aggregate classification:")
		for _, def := range prog.Script.Aggs {
			a := an.Agg(def)
			fmt.Printf("  %-28s indexable=%-5v axes=%d eqs=%d", def.Name, a.Indexable, len(a.Axes), len(a.Eqs))
			for i, out := range def.Outputs {
				fmt.Printf(" %s:%s", out.As, a.OutClass[i])
			}
			fmt.Println()
		}
		fmt.Println("action classification:")
		for _, def := range prog.Script.Acts {
			a := an.Act(def)
			fmt.Printf("  %-28s class=%-6s deferrable=%v\n", def.Name, a.Class, a.Deferrable)
		}
		fmt.Println()
	}

	if *explain {
		plan, err := algebra.Translate(prog)
		if err != nil {
			fatal(err)
		}
		if !*noOpt {
			algebra.Optimize(plan)
			fmt.Println("optimized plan:")
		} else {
			fmt.Println("unoptimized plan:")
		}
		fmt.Print(plan.Explain())
	}

	if *vet {
		diags := lint.Lint(src, lint.Options{
			Mode:         lint.ModeScript,
			Schema:       game.Schema(),
			Consts:       game.Consts(),
			Categoricals: game.Categoricals(),
		})
		fmt.Println()
		if len(diags) == 0 {
			fmt.Println("vet: clean")
		} else {
			fmt.Println("vet:")
			for _, d := range diags {
				fmt.Printf("  %s\n", d)
			}
		}
	}
}

// upgradeFile rewrites the checkpoint at in as the current format at out
// (staged and renamed into place, so a failure leaves no partial file).
// script names the SGL file a version-1 checkpoint ran; later versions
// embed theirs and ignore it.
func upgradeFile(in, out, script string) error {
	var prog *sem.Program
	if script != "" {
		var err error
		if prog, _, err = compileScript(script); err != nil {
			return err
		}
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	return table.WriteFileAtomic(out, func(w *os.File) error {
		return engine.Upgrade(f, w, prog)
	})
}

// compileScript checks the SGL script at path — the built-in battle script
// when path is empty — against the battle schema and constants, and
// returns the program with its source.
func compileScript(path string) (*sem.Program, string, error) {
	src := game.Script
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		src = string(data)
	}
	script, err := parser.Parse(src)
	if err != nil {
		return nil, "", err
	}
	prog, err := sem.Check(script, game.Schema(), game.Consts())
	return prog, src, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sglc:", err)
	os.Exit(1)
}
