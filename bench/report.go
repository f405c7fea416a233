package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// distOf names the timing sample behind each metric, for the sample
// count and tail a report line shows.
var distOf = map[string]string{
	"setup_s":      "setup_s",
	"query_p50_us": "query_us", "query_p90_us": "query_us", "query_p99_us": "query_us",
	"command_p50_us": "command_us", "command_p90_us": "command_us", "command_p99_us": "command_us",
	"input_to_push_p50_ms": "input_to_push_ms",
	"migrate_p50_ms":       "migrate_ms",
}

// names returns which metrics a run of this kind reports to the driver.
func (bf *benchFile) names(trace bool) []metricDef {
	if trace {
		return bf.PerLayer
	}
	return bf.EndToEnd
}

// printRun prints one run: every metric by name with its unit, sample
// count and highest supported percentile where it is a timing, and its
// regression bound where it is gated.
func printRun(w io.Writer, bf *benchFile, r *runResult, trace bool) {
	fmt.Fprintf(w, "\n%s  seed=%d  window=%.1fs  correct=%v  operations attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.WindowS, r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	line := func(name string, m metric) string {
		l := fmt.Sprintf("  %-32s %14.4f %-6s", name, m.Value, m.Unit)
		if d, ok := r.Dists[distOf[name]]; ok {
			l += fmt.Sprintf(" n=%-6d p%g=%.4f", d.N, d.TailPct, d.Tail)
		}
		return l
	}
	listed := map[string]bool{}
	for _, def := range bf.names(trace) {
		listed[def.Name] = true
		m, ok := r.Metrics[def.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-32s (not reported)\n", def.Name)
		case def.Bound > 0:
			fmt.Fprintf(w, "%s  bound %.2f\n", line(def.Name, m), def.Bound)
		default:
			fmt.Fprintln(w, line(def.Name, m))
		}
	}
	if trace {
		return // the short end-to-end pass of a traced run is not a measurement
	}
	// Everything else the run measured is reported but not gated.
	var rest []string
	for name := range r.Metrics {
		if !listed[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Fprintln(w, line(name, r.Metrics[name])+"  (reported, not gated)")
	}
}

// printDriverLine ends a single-workload run with the one JSON object
// the acceptance driver reads: exactly the metrics BENCHMARK.json lists
// for this kind of run, as measured.
func printDriverLine(w io.Writer, bf *benchFile, r *runResult, trace bool) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, def := range bf.names(trace) {
		m, ok := r.Metrics[def.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, def.Name)
		}
		line.Metrics[def.Name] = m
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// ---------------------------------------------------------------------------
// Run sets

// workloadRuns is one workload's part of a run set.
type workloadRuns struct {
	Runs []*runResult `json:"runs"`
	// Median and Spread are per metric over the runs: the median value,
	// and the interquartile distance as a share of it.
	Median map[string]float64 `json:"median"`
	Spread map[string]float64 `json:"spread"`
	Unit   map[string]string  `json:"unit"`
}

// runSet is the result file: N runs of every workload on one commit and
// machine. Two run sets of one commit must agree within the bounds for a
// bound to mean anything; `bench compare` checks exactly that.
type runSet struct {
	Schema    int                      `json:"schema"`
	Env       environment              `json:"env"`
	Seconds   int                      `json:"seconds"`
	Trace     bool                     `json:"trace"`
	RunsEach  int                      `json:"runs_per_workload"`
	Workloads map[string]*workloadRuns `json:"workloads"`
}

func newRunSet(h *harness, seconds int, trace bool, runs int) *runSet {
	return &runSet{Schema: 1, Env: readEnvironment(h.root), Seconds: seconds, Trace: trace, RunsEach: runs,
		Workloads: map[string]*workloadRuns{}}
}

func (s *runSet) add(r *runResult) {
	w := s.Workloads[r.Workload]
	if w == nil {
		w = &workloadRuns{}
		s.Workloads[r.Workload] = w
	}
	w.Runs = append(w.Runs, r)
}

func (s *runSet) summarize() {
	for _, w := range s.Workloads {
		w.Median, w.Spread, w.Unit = map[string]float64{}, map[string]float64{}, map[string]string{}
		values := map[string][]float64{}
		for _, r := range w.Runs {
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
				w.Unit[name] = m.Unit
			}
		}
		for name, vs := range values {
			w.Median[name] = median(vs)
			w.Spread[name] = spread(vs)
		}
	}
}

// print shows each workload's medians and spreads against the bounds.
func (s *runSet) print(out io.Writer, bf *benchFile) {
	fmt.Fprintf(out, "\nrun set: %d run(s) per workload, %ds windows, %s, GOMAXPROCS=%d, %s, commit %s\n",
		s.RunsEach, s.Seconds, s.Env.CPU, s.Env.GOMAXPROCS, s.Env.Go, s.Env.Commit)
	for _, spec := range workloads {
		w := s.Workloads[spec.Name]
		if w == nil {
			continue
		}
		fmt.Fprintf(out, "\n%s — %s\n", spec.Name, spec.Why)
		fmt.Fprintf(out, "  %-32s %14s %-6s %8s %6s\n", "metric", "median", "unit", "spread", "bound")
		for _, def := range bf.names(s.Trace) {
			line := fmt.Sprintf("  %-32s %14.4f %-6s %7.1f%%", def.Name, w.Median[def.Name], w.Unit[def.Name], 100*w.Spread[def.Name])
			if def.Bound > 0 {
				line += fmt.Sprintf(" %5.0f%%", 100*def.Bound)
				if s.RunsEach > 1 && def.Name != "setup_s" && w.Spread[def.Name] > def.Bound {
					line += "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Fprintln(out, line)
		}
	}
}

func (s *runSet) failures() int {
	bad := 0
	for _, w := range s.Workloads {
		for _, r := range w.Runs {
			if !r.Correct || r.Failed > 0 {
				bad++
			}
		}
	}
	return bad
}

func (s *runSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ---------------------------------------------------------------------------
// compare

// compareMain implements `bench compare base.json new.json`: one row per
// workload × end-to-end metric with both medians, their ratio and its
// base, and how much worse the new side is against the metric's bound.
// It exits non-zero when any metric is worse by more than its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare base.json new.json")
		return 2
	}
	root, err := repoRoot()
	var bf *benchFile
	if err == nil {
		bf, err = readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	}
	var base, cur runSet
	if err == nil {
		err = readJSON(args[0], &base)
	}
	if err == nil {
		err = readJSON(args[1], &cur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	exceeded := compare(os.Stdout, bf, &base, &cur)
	if exceeded > 0 {
		fmt.Printf("\n%d metric(s) worse than the base by more than their bound\n", exceeded)
		return 1
	}
	fmt.Println("\nevery gated metric is within its bound")
	return 0
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// worseBy is how much worse cur is than base as a share of base, in the
// metric's own direction (positive = worse).
func worseBy(def metricDef, base, cur float64) float64 {
	if def.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// compare prints the table and returns how many gated metrics exceed
// their bound.
func compare(out io.Writer, bf *benchFile, base, cur *runSet) int {
	fmt.Fprintf(out, "base: commit %s (%s)\nnew:  commit %s (%s)\n", base.Env.Commit, base.Env.Time, cur.Env.Commit, cur.Env.Time)
	exceeded := 0
	for _, spec := range workloads {
		b, c := base.Workloads[spec.Name], cur.Workloads[spec.Name]
		if b == nil || c == nil {
			fmt.Fprintf(out, "\n%s: missing from one side\n", spec.Name)
			exceeded++
			continue
		}
		fmt.Fprintf(out, "\n%s\n  %-24s %14s %14s %-6s %9s %9s %6s\n", spec.Name, "metric", "base", "new", "unit", "new/base", "worse by", "bound")
		for _, def := range bf.EndToEnd {
			bv, cv := b.Median[def.Name], c.Median[def.Name]
			worse := worseBy(def, bv, cv)
			verdict := ""
			if worse > def.Bound || math.IsNaN(worse) {
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Fprintf(out, "  %-24s %14.4f %14.4f %-6s %9.3f %+8.1f%% %5.0f%%%s\n",
				def.Name, bv, cv, b.Unit[def.Name], cv/bv, 100*worse, 100*def.Bound, verdict)
		}
	}
	return exceeded
}
