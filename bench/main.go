// Command bench is the repository's benchmark: it builds cmd/sgld and
// cmd/sglgw, runs them as child processes on loopback, drives four fixed
// workloads against them from this one process, verifies their outputs,
// and prints every metric by name with its unit. See README.md.
//
//	go run -C bench .                         all four workloads, one run each
//	go run -C bench . -runs 10 -out a.json    a run set: ten seeds per workload
//	go run -C bench . -trace 1                the per-layer (traced) run
//	go run -C bench . compare a.json b.json   gate b against a with BENCHMARK.json's bounds
//
// The acceptance driver's form — one workload, one seed, one JSON object
// on the last line of standard output — is
//
//	bash bench/run.sh --workload battle-tick --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Fixed sizes of one run. The window length is the -seconds flag; these
// are the parts around it.
const (
	warmup      = 1500 * time.Millisecond
	setupCycles = 9
	verifyTicks = 20
	migrations  = 10
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's one-line JSON result (empty = all four)")
		seed     = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs (run r of a set uses seed+r)")
		seconds  = flag.Int("seconds", 0, "measurement window in seconds (0 = run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = the traced per-layer run instead of the end-to-end run")
		runs     = flag.Int("runs", 1, "runs per workload when running all four (a run set)")
		out      = flag.String("out", "", "result JSON path when running all four (default bench/out/result.json)")
		smoke    = flag.Bool("smoke", false, "in-process servers and scaled-down worlds: a seconds-long functional check, not a measurement")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *runs, *out, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds int, trace bool, runs int, out string, smoke bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = bf.RunSeconds
	}
	h := &harness{root: root, window: time.Duration(seconds) * time.Second, smoke: smoke}
	if err := h.prepare(); err != nil {
		return err
	}
	defer h.cleanup()

	if workload != "" {
		spec, ok := workloadByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err := h.runOnce(spec, seed, trace)
		if err != nil {
			return err
		}
		printRun(os.Stdout, bf, res, trace)
		return printDriverLine(os.Stdout, bf, res, trace)
	}

	set := newRunSet(h, seconds, trace, runs)
	for _, spec := range workloads {
		for r := 0; r < runs; r++ {
			res, err := h.runOnce(spec, seed+uint64(r), trace)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			printRun(os.Stdout, bf, res, trace)
			set.add(res)
		}
	}
	set.summarize()
	set.print(os.Stdout, bf)
	if out == "" {
		out = filepath.Join(h.outDir, "result.json")
	}
	if err := set.write(out); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", out)
	if bad := set.failures(); bad > 0 {
		return fmt.Errorf("%d run(s) failed their own output verification or had failed operations", bad)
	}
	return nil
}

// harness is what every run shares: where things are, and how the
// programs under test get started.
type harness struct {
	root   string
	window time.Duration
	smoke  bool

	outDir string // bench/out: result and span files
	work   string // scratch for this invocation's children, removed on exit
	launch launcher
}

// prepare builds the programs under test and lays out the directories.
func (h *harness) prepare() error {
	h.outDir = filepath.Join(h.root, "bench", "out")
	if err := os.MkdirAll(h.outDir, 0o755); err != nil {
		return err
	}
	if h.smoke {
		h.launch = inprocLauncher{}
		return nil
	}
	build := filepath.Join(h.root, ".bench_build")
	binDir := filepath.Join(build, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/sgld", "./cmd/sglgw")
	cmd.Dir = h.root
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build sgld/sglgw: %v\n%s", err, outp)
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return err
	}
	h.work = work
	h.launch = procLauncher{binDir: binDir, work: work}
	return nil
}

func (h *harness) cleanup() {
	if h.work != "" {
		_ = os.RemoveAll(h.work)
	}
}

// runOnce is one run of one workload: the end-to-end run, or with trace
// the per-layer run (a short end-to-end pass for the process and
// generator figures, then the in-process layer measurements).
func (h *harness) runOnce(spec workloadSpec, seed uint64, trace bool) (*runResult, error) {
	cfg := runConfig{
		Spec: spec, Seed: seed, Window: h.window, Warmup: warmup,
		SetupCycles: setupCycles, VerifyTicks: verifyTicks, Migrations: migrations,
		Launch: h.launch,
	}
	if h.smoke {
		cfg.Spec.World.Units = max(spec.World.Units/10, 100)
		cfg.Warmup, cfg.SetupCycles, cfg.VerifyTicks, cfg.Migrations = 200*time.Millisecond, 2, 5, 2
	}
	if !trace {
		return runEndToEnd(cfg)
	}
	cfg.Window = h.window / 4
	cfg.SetupCycles, cfg.Migrations = 1, 2
	res, err := runEndToEnd(cfg)
	if err != nil {
		return nil, err
	}
	layers, tr, err := runLayers(cfg.Spec, seed, h.window)
	if err != nil {
		return nil, fmt.Errorf("per-layer run: %w", err)
	}
	for name, m := range layers {
		res.Metrics[name] = m
	}
	spans := filepath.Join(h.outDir, "trace-"+spec.Name+".json")
	if err := tr.write(spans); err != nil {
		return nil, err
	}
	fmt.Printf("%s: %d spans written to %s\n", spec.Name, len(tr.spans), spans)
	return res, nil
}

// repoRoot finds the checkout: the nearest directory at or above the
// working directory whose go.mod declares the module under test. The
// benchmark lives in that module's bench/ directory and builds the
// programs from its cmd/ directories, so without it there is nothing to
// measure.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(data), "module github.com/epicscale/sgl\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside a checkout of github.com/epicscale/sgl (no go.mod found above the working directory)")
		}
		dir = parent
	}
}

// ---------------------------------------------------------------------------
// BENCHMARK.json

// metricDef is one metric's entry in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchFile is BENCHMARK.json: the contract the benchmark is run under.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// environment records what the numbers were measured on; absolute
// figures are machine-bound and only comparable within one environment.
type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func readEnvironment(root string) environment {
	env := environment{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown",
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if outp, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(outp))
	}
	return env
}
