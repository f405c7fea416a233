package lint

import (
	"fmt"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/sem"
)

// checkPerformance classifies every reachable definition with the
// executor's own analyzer (exec.NewAnalyzer — the same call the engine
// makes at world creation) and reports the SGL1xx family. Because the
// classifier is shared, a lint verdict here is exactly the pipeline the
// engine will run: SGL101 means per-tick scans, SGL104 means one output
// drags an otherwise indexed definition to a per-probe scan, and SGL103
// means a guard that filters after an index probe instead of before it.
func (l *linter) checkPerformance(prog *sem.Program, reach *reachSet) {
	an := exec.NewAnalyzer(prog, l.opts.Categoricals)

	if l.opts.Mode == ModeQuery {
		n := len(prog.Script.Aggs)
		if n == 0 {
			return
		}
		l.perfAgg(an, prog.Script.Aggs[n-1])
		return
	}

	for _, def := range prog.Script.Aggs {
		if reach.aggs[def] {
			l.perfAgg(an, def)
		}
	}
	for _, def := range prog.Script.Acts {
		if !reach.acts[def] {
			continue
		}
		a := an.Act(def)
		if a.Class == exec.ActScan && def.Where != nil {
			pos := def.P
			detail := "its condition is not index-usable"
			if len(a.Residual) > 0 {
				pos = a.Residual[0].Pos()
				detail = fmt.Sprintf("conjunct %s is neither a categorical equality nor an orthogonal range on e", a.Residual[0])
			} else if len(a.Axes) > 2 {
				detail = fmt.Sprintf("%d range axes exceed the 2-dimensional spatial index", len(a.Axes))
			}
			l.report(CodeResidual, pos,
				"action %s targets by full scan: %s", def.Name, detail)
		}
	}

	l.checkGuardPlacement(prog)
}

// perfAgg reports SGL101 for a non-index-usable aggregate and SGL104 for
// scan-class outputs of an otherwise indexable one.
func (l *linter) perfAgg(an *exec.Analyzer, def *ast.AggDef) {
	a := an.Agg(def)
	if !a.Indexable {
		pos := def.P
		detail := "its condition is not index-usable"
		switch {
		case len(a.Residual) > 0:
			pos = a.Residual[0].Pos()
			detail = fmt.Sprintf("conjunct %s is neither a categorical equality nor an orthogonal range on e", a.Residual[0])
		case len(a.Axes) > 2:
			detail = fmt.Sprintf("%d range axes exceed the 2-dimensional index", len(a.Axes))
		default:
			for _, eq := range a.Eqs {
				if !l.categorical(eq.Col) {
					detail = fmt.Sprintf("equality on %s partitions on a non-categorical attribute", l.attrName(eq.Col))
					break
				}
			}
		}
		l.report(CodeResidual, pos,
			"aggregate %s evaluates by full scan on every probe: %s", def.Name, detail)
		return
	}
	for i, out := range def.Outputs {
		if a.OutClass[i] == exec.ClassScan {
			l.report(CodeScanOutput, out.P,
				"output %s of aggregate %s falls back to a per-probe scan even though the condition is index-usable (%s)",
				out.As, def.Name, scanReason(out))
		}
	}
}

// scanReason explains why classifyOutput demoted an output of an
// indexable definition: mirrors the rules in exec.classifyOutput.
func scanReason(out ast.AggOutput) string {
	switch out.Func {
	case ast.Min, ast.Max:
		return "min/max over a one-sided range walks the partition"
	case ast.NearestKey, ast.NearestDist, ast.NearestX, ast.NearestY:
		return "nearest constrained by a range cannot use the kD-tree alone"
	}
	return "the argument depends on the probe unit or a parameter, so it cannot be precomputed into the index"
}

// categorical reports whether the schema column is in the configured
// categorical set (same resolution exec.NewAnalyzer performs).
func (l *linter) categorical(col int) bool {
	for _, name := range l.opts.Categoricals {
		if c, ok := l.opts.Schema.Col(name); ok && c == col {
			return true
		}
	}
	return false
}

func (l *linter) attrName(col int) string {
	if l.opts.Schema != nil && col >= 0 && col < l.opts.Schema.NumAttrs() {
		return l.opts.Schema.Attr(col).Name
	}
	return fmt.Sprintf("column %d", col)
}

// checkGuardPlacement compiles the default optimized plan the way the
// engine does and reports SGL103 for trapped pushable conjuncts: a
// conjunct that reads no extension (it could filter rows before any
// probe) but shares a guard stage with one that does read a probe result,
// so the stage as a whole runs after the probe and the probe pays for
// rows the pushable conjunct would have rejected. (A guard that reads the
// probe's own result is not reported — it cannot run anywhere else.)
func (l *linter) checkGuardPlacement(prog *sem.Program) {
	plan, err := algebra.Translate(prog)
	if err != nil {
		return // nothing compiled, nothing to place
	}
	reports, err := algebra.Report(prog, algebra.Optimize(plan))
	if err != nil {
		return
	}
	seen := map[string]bool{}
	for _, r := range reports {
		for _, st := range r.Stages {
			if st.BlockedBy == "" || !st.BlockedByProbe {
				continue
			}
			for _, c := range st.Conjuncts {
				if !c.Pushable {
					continue
				}
				key := c.Cond + "\x00" + st.BlockedBy
				if seen[key] {
					continue
				}
				seen[key] = true
				l.report(CodeGuardBlocked, c.Pos,
					"conjunct %s could filter before the index probe of %s but is trapped behind it in the pipeline of %s — test it in an earlier if so the probe skips rejected rows",
					c.Cond, st.BlockedBy, r.Action)
			}
		}
	}
}
