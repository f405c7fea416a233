// Pipeline classification report: the statically-derivable part of what
// the streaming executor decides at pipeline-compile time, exposed so the
// lint pass (internal/sgl/lint) can diagnose guard placement and conjunct
// selectivity with the executor's own code. Report renders through
// chainStages — the exact function plan compilation lays pipelines out
// with — so a static report over a plan is byte-identical to the live
// executor's placement for that plan. (Batch segmentation is
// provider-dependent and deliberately absent from the report.)
package algebra

import (
	"fmt"
	"strings"

	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/sgl/token"
)

// StageReport describes one stage of a compiled pipeline. Exactly one of
// the Select fields (Conjuncts) or the Extend fields (Extend) is populated.
type StageReport struct {
	// Select stages: the AND-conjuncts in greedy evaluation order with
	// their selectivity classes.
	Conjuncts []ConjunctReport `json:"conjuncts,omitempty"`
	// BlockedBy names the nearest preceding extension whose slot this
	// guard reads — the probe the guard could not be pushed below.
	// Empty when the guard runs before every extension of its chain.
	BlockedBy string `json:"blocked_by,omitempty"`
	// BlockedByProbe reports whether that extension contains an
	// aggregate call (an index probe, the expensive case).
	BlockedByProbe bool `json:"blocked_by_probe,omitempty"`

	// Extend stages: the let name being bound and whether its value
	// contains an aggregate call.
	Extend   string `json:"extend,omitempty"`
	AggProbe bool   `json:"agg_probe,omitempty"`

	// Pos is the source position of the stage's condition or value.
	Pos token.Pos `json:"-"`
}

// ConjunctReport is one ordered conjunct of a Select stage.
type ConjunctReport struct {
	Cond  string        `json:"cond"`
	Class ConjunctClass `json:"-"`
	// ClassName is Class rendered for JSON consumers.
	ClassName string    `json:"class"`
	Pos       token.Pos `json:"-"` // source position of the conjunct
	// Pushable reports that this conjunct reads no extension slot at all:
	// split into its own guard, it could run before every probe of the
	// chain. A Pushable conjunct inside a stage blocked by a probe is
	// trapped — the probe pays for rows this conjunct would have rejected.
	Pushable bool `json:"pushable,omitempty"`
}

// PipelineReport describes the compiled streaming pipeline of one Apply
// node: its action, and the stage order after guard pushdown.
type PipelineReport struct {
	Action string        `json:"action"`
	Args   string        `json:"args,omitempty"`
	Stages []StageReport `json:"stages"`
}

// String renders the pipeline in a canonical, diffable form.
func (r *PipelineReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "act %s(%s)\n", r.Action, r.Args)
	for _, st := range r.Stages {
		if st.Extend != "" {
			probe := ""
			if st.AggProbe {
				probe = " [probe]"
			}
			fmt.Fprintf(&b, "  extend %s%s\n", st.Extend, probe)
			continue
		}
		parts := make([]string, len(st.Conjuncts))
		for i, c := range st.Conjuncts {
			parts[i] = fmt.Sprintf("[%s] %s", c.Class, c.Cond)
		}
		blocked := ""
		if st.BlockedBy != "" {
			blocked = fmt.Sprintf("  (blocked by %s)", st.BlockedBy)
		}
		fmt.Fprintf(&b, "  select %s%s\n", strings.Join(parts, " and "), blocked)
	}
	return b.String()
}

// Report compiles every Apply input chain of the plan exactly the way the
// streaming executor does (guard pushdown + greedy conjunct ordering) and
// returns the resulting placements. prog is consulted only to distinguish
// aggregate probes from cheap builtin calls inside extensions.
func Report(prog *sem.Program, p *Plan) ([]PipelineReport, error) {
	applies, err := p.Applies()
	if err != nil {
		return nil, err
	}
	out := make([]PipelineReport, 0, len(applies))
	for _, ap := range applies {
		stages, err := chainStages(ap.In)
		if err != nil {
			return nil, err
		}
		out = append(out, reportChain(prog, ap, stages))
	}
	return out, nil
}

func reportChain(prog *sem.Program, ap *Apply, stages []stage) PipelineReport {
	args := make([]string, len(ap.Args))
	for i, a := range ap.Args {
		args[i] = a.String()
	}
	r := PipelineReport{Action: ap.Def.Name, Args: strings.Join(args, ", ")}
	for i := range stages {
		st := &stages[i]
		if st.ext != nil {
			r.Stages = append(r.Stages, StageReport{
				Extend:   st.ext.Name,
				AggProbe: hasAggCall(prog, st.ext.Value),
				Pos:      st.ext.Value.Pos(),
			})
			continue
		}
		sr := StageReport{Conjuncts: make([]ConjunctReport, len(st.conjs)), Pos: st.sel.Cond.Pos()}
		for j, c := range st.conjs {
			cl := ClassifyConjunct(c)
			var cslots []int
			collectCondSlots(c, st.sel.Env, &cslots)
			sr.Conjuncts[j] = ConjunctReport{Cond: c.String(), Class: cl, ClassName: cl.String(), Pos: c.Pos(), Pushable: len(cslots) == 0}
		}
		// The nearest preceding extension this guard reads is the probe
		// it could not be pushed below (pushdownGuards stops there).
		var condSlots []int
		collectCondSlots(st.sel.Cond, st.sel.Env, &condSlots)
		for k := i - 1; k >= 0; k-- {
			ext := stages[k].ext
			if ext == nil {
				continue
			}
			for _, s := range condSlots {
				if s == ext.Slot {
					sr.BlockedBy = ext.Name
					sr.BlockedByProbe = hasAggCall(prog, ext.Value)
					break
				}
			}
			if sr.BlockedBy != "" {
				break
			}
		}
		r.Stages = append(r.Stages, sr)
	}
	return r
}

// hasAggCall reports whether the term contains a call that sem resolved to
// an aggregate definition (as opposed to a scalar builtin or Random).
func hasAggCall(prog *sem.Program, t ast.Term) bool {
	found := false
	ast.Inspect(t, func(n any) bool {
		if c, ok := n.(*ast.Call); ok && prog.AggCalls[c] != nil {
			found = true
		}
		return !found
	})
	return found
}
