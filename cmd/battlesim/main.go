// Command battlesim runs the paper's battle simulation (Section 3.2) from
// the command line under either engine, as a session that can be
// checkpointed and resumed.
//
// Usage:
//
//	battlesim -units 2000 -ticks 500 -mode indexed -density 0.01 -seed 42
//	battlesim -units 10000 -workers 4              # sharded ticks, identical results
//	battlesim -ticks 500 -checkpoint world.ckpt -checkevery 100
//	battlesim -ticks 500 -resume world.ckpt        # continue where it stopped
//	battlesim -ticks 500 -commands input.txt       # scripted external commands
//
// A resumed run produces exactly the environment and counters the
// uninterrupted run would have: checkpoints carry the tick counter, the
// seed, the determinism-relevant options, the cumulative deaths/moves
// counters, and any pending or journaled external commands.
//
// The -commands file scripts external inputs, one per line (blank lines
// and #-comments are skipped); each is submitted once the session has
// completed <tick> ticks, and the next tick applies it at its commit: the
// world after <tick>+1 ticks holds it, and tick <tick>+1 is the first
// whose decisions read it.
// Ticks are absolute, so a -resume run may reuse the same file: entries
// behind the resumed tick (already in the checkpoint's journal) are
// skipped with a notice.
//
// Line grammar:
//
//	<tick> spawn <key> <player> <unittype> <x> <y>
//	<tick> despawn <key>
//	<tick> set <key> <column> <value>
//	<tick> tune <constant> <value>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

// config is the parsed command line.
type config struct {
	units      int
	ticks      int
	mode       engine.Mode
	density    float64
	seed       uint64
	formation  workload.Formation
	report     int
	workers    int
	compact    bool
	checkpoint string // write a checkpoint here every checkEvery ticks (and at the end)
	checkEvery int
	resume     string // start from this checkpoint instead of a fresh army
	commands   string // scripted external-command file
}

func main() {
	var cfg config
	var modeName, formation string
	flag.IntVar(&cfg.units, "units", 1000, "number of units")
	flag.IntVar(&cfg.ticks, "ticks", 100, "clock ticks to simulate")
	flag.StringVar(&modeName, "mode", "indexed", "naive or indexed")
	flag.Float64Var(&cfg.density, "density", 0.01, "fraction of grid squares occupied")
	flag.Uint64Var(&cfg.seed, "seed", 42, "run seed")
	flag.StringVar(&formation, "formation", "lines", "lines or scattered")
	flag.IntVar(&cfg.report, "report", 25, "progress report interval in ticks (0 = none)")
	flag.IntVar(&cfg.workers, "workers", 0, "tick executor shards (0 = all cores, 1 = serial; results are identical)")
	flag.BoolVar(&cfg.compact, "compact", false, "fold the applied journal into the checkpoint base at the end of every tick (flat checkpoints; no genesis replay)")
	flag.StringVar(&cfg.checkpoint, "checkpoint", "", "write a checkpoint to this path every -checkevery ticks and at the end")
	flag.IntVar(&cfg.checkEvery, "checkevery", 100, "checkpoint interval in ticks (with -checkpoint)")
	flag.StringVar(&cfg.resume, "resume", "", "resume from a checkpoint written by -checkpoint (ignores -units/-density/-seed/-mode/-formation)")
	flag.StringVar(&cfg.commands, "commands", "", "scripted external commands, one \"<tick> <op> <args>\" per line")
	flag.Parse()

	switch modeName {
	case "indexed":
		cfg.mode = engine.Indexed
	case "naive":
		cfg.mode = engine.Naive
	default:
		fmt.Fprintln(os.Stderr, "battlesim: -mode must be naive or indexed")
		os.Exit(2)
	}
	cfg.formation = workload.BattleLines
	if formation == "scattered" {
		cfg.formation = workload.Scattered
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "battlesim:", err)
		os.Exit(1)
	}
}

// timedCommand is one -commands file entry: submit cmd once the session
// has completed tick ticks (the next tick applies it at its commit).
type timedCommand struct {
	tick int64
	cmd  engine.Command
}

// loadCommands parses a -commands file (see the package comment for the
// line grammar). Entries come back sorted by tick, submission order
// preserved within a tick.
func loadCommands(path string) ([]timedCommand, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cmds []timedCommand
	for ln, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", path, ln+1, fmt.Sprintf(format, args...))
		}
		tick, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil || tick < 0 {
			return nil, bad("bad tick %q", f[0])
		}
		if len(f) < 2 {
			return nil, bad("missing command after tick %d", tick)
		}
		num := func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
		var cmd engine.Command
		switch {
		case f[1] == "spawn" && len(f) == 7:
			key, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil || key < 0 {
				return nil, bad("bad spawn key %q", f[2])
			}
			player, err1 := strconv.Atoi(f[3])
			unittype, err2 := strconv.Atoi(f[4])
			x, err3 := num(f[5])
			y, err4 := num(f[6])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
				player < 0 || player > 1 || unittype < game.Knight || unittype > game.Healer {
				return nil, bad("spawn wants <key> <player 0|1> <unittype 0|1|2> <x> <y>")
			}
			cmd = engine.Command{Op: engine.OpSpawn, Row: game.NewUnit(key, player, unittype, geom.Point{X: x, Y: y})}
		case f[1] == "despawn" && len(f) == 3:
			key, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return nil, bad("bad despawn key %q", f[2])
			}
			cmd = engine.Command{Op: engine.OpDespawn, Key: key}
		case f[1] == "set" && len(f) == 5:
			key, err := strconv.ParseInt(f[2], 10, 64)
			v, err2 := num(f[4])
			if err != nil || err2 != nil {
				return nil, bad("set wants <key> <column> <value>")
			}
			cmd = engine.Command{Op: engine.OpSet, Key: key, Col: f[3], Val: v}
		case f[1] == "tune" && len(f) == 4:
			v, err := num(f[3])
			if err != nil {
				return nil, bad("tune wants <constant> <value>")
			}
			cmd = engine.Command{Op: engine.OpTune, Col: f[2], Val: v}
		default:
			return nil, bad("unknown or malformed command %q", strings.Join(f[1:], " "))
		}
		cmds = append(cmds, timedCommand{tick: tick, cmd: cmd})
	}
	sort.SliceStable(cmds, func(i, j int) bool { return cmds[i].tick < cmds[j].tick })
	return cmds, nil
}

// run drives one battlesim invocation. It is main minus flag parsing and
// process exit, so the checkpoint/resume smoke test can exercise the
// exact code path users do.
func run(cfg config, out io.Writer) error {
	prog, err := game.Compile()
	if err != nil {
		return err
	}
	tune := engine.Options{
		Workers:        cfg.workers,
		CompactJournal: cfg.compact,
	}

	var commands []timedCommand
	if cfg.commands != "" {
		if commands, err = loadCommands(cfg.commands); err != nil {
			return err
		}
	}

	var sess *engine.Session
	if cfg.resume != "" {
		f, err := os.Open(cfg.resume)
		if err != nil {
			return err
		}
		// Checkpoints are self-contained: Open rebuilds the program from
		// the stream. Older layouts fail with a pointer at sglc -upgrade.
		sess, err = engine.Open(f, game.NewMechanics(), tune)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "battlesim: resumed %d units at tick %d from %s\n",
			sess.Engine().Env().Len(), sess.Tick(), cfg.resume)
	} else {
		spec := workload.Spec{Units: cfg.units, Density: cfg.density, Seed: cfg.seed, Formation: cfg.formation}
		opts := tune
		opts.Mode = cfg.mode
		opts.Categoricals = game.Categoricals()
		opts.Seed = cfg.seed
		opts.Side = spec.Side()
		opts.MoveSpeed = 1
		e, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), opts)
		if err != nil {
			return err
		}
		sess = engine.NewSession(e)
		fmt.Fprintf(out, "battlesim: %d units, %.1f%% density (grid %.0f×%.0f), %s engine, %d ticks, %d workers\n",
			cfg.units, cfg.density*100, spec.Side(), spec.Side(), cfg.mode, cfg.ticks, e.Workers())
	}

	start := time.Now()
	startTick := sess.Tick()
	if cfg.report > 0 {
		endTick := startTick + int64(cfg.ticks)
		sess.OnTick(func(tick int64, stats engine.RunStats) {
			// Report on the interval and always on the final tick, so the
			// run's end-state counters appear even when -ticks is not a
			// multiple of -report.
			if (tick-startTick)%int64(cfg.report) != 0 && tick != endTick {
				return
			}
			elapsed := time.Since(start)
			fmt.Fprintf(out, "tick %5d  %8.2fs elapsed  %8.1f ticks/s  deaths=%d moves=%d blocked=%d\n",
				tick, elapsed.Seconds(), float64(tick-startTick)/elapsed.Seconds(),
				stats.Deaths, stats.Moves, stats.MovesBlocked)
		})
	}

	writeCheckpoint := func() error {
		if cfg.checkpoint == "" {
			return nil
		}
		// Staged write + fsync + rename-into-place (table.WriteFileAtomic):
		// a crash mid-write never corrupts the last good checkpoint.
		if err := table.WriteFileAtomic(cfg.checkpoint, func(f *os.File) error {
			return sess.Checkpoint(f)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "checkpoint: tick %d → %s\n", sess.Tick(), cfg.checkpoint)
		return nil
	}

	// Scripted commands are submitted once the session reaches their
	// tick; ticks are absolute session ticks, so a -resume run picks up
	// mid-file with the SAME file that drove the earlier segment:
	// entries behind the starting tick were already submitted then (and
	// live in the checkpoint's journal), so they are skipped here, with
	// a notice so a genuinely mis-ticked file does not fail silently.
	cmdIdx := 0
	for cmdIdx < len(commands) && commands[cmdIdx].tick < startTick {
		cmdIdx++
	}
	if cmdIdx > 0 {
		fmt.Fprintf(out, "commands: skipping %d entries at ticks before %d (already covered by the resumed run's journal)\n",
			cmdIdx, startTick)
	}
	submitDue := func() error {
		cur := sess.Tick()
		for cmdIdx < len(commands) && commands[cmdIdx].tick == cur {
			if err := sess.Submit("battlesim", commands[cmdIdx].cmd); err != nil {
				return err
			}
			cmdIdx++
		}
		return nil
	}

	for done := 0; done < cfg.ticks; {
		if err := submitDue(); err != nil {
			return err
		}
		step := cfg.ticks - done
		if cfg.checkpoint != "" && cfg.checkEvery > 0 && step > cfg.checkEvery {
			step = cfg.checkEvery
		}
		// Stop at the next scripted command's tick so it is submitted at
		// exactly the boundary it names.
		if cmdIdx < len(commands) {
			if until := int(commands[cmdIdx].tick - sess.Tick()); until > 0 && step > until {
				step = until
			}
		}
		if err := sess.Step(step); err != nil {
			return err
		}
		done += step
		if done < cfg.ticks {
			if err := writeCheckpoint(); err != nil {
				return err
			}
		}
	}
	if err := submitDue(); err != nil { // entries naming the final tick stay pending (journaled + checkpointed)
		return err
	}
	if cmdIdx < len(commands) {
		fmt.Fprintf(out, "commands: %d entries named ticks beyond the run and were not submitted\n", len(commands)-cmdIdx)
	}
	if err := writeCheckpoint(); err != nil {
		return err
	}

	total := time.Since(start)
	stats := sess.Stats()
	fmt.Fprintf(out, "\ntotal: %.2fs for %d ticks (%.4fs/tick, %.1f ticks/s)\n",
		total.Seconds(), cfg.ticks, total.Seconds()/float64(cfg.ticks), float64(cfg.ticks)/total.Seconds())
	if cfg.commands != "" || stats.CommandsApplied+stats.CommandsRejected > 0 {
		fmt.Fprintf(out, "commands: %d applied, %d rejected, %d pending\n",
			stats.CommandsApplied, stats.CommandsRejected, len(sess.Pending()))
	}
	if s := stats.IndexStats; s.IndexBuilds > 0 {
		fmt.Fprintf(out, "index work: %d builds, %d tree probes, %d kd probes, %d sweeps, %d scan fallbacks\n",
			s.IndexBuilds, s.TreeProbes, s.KDProbes, s.Sweeps, s.ScanProbes)
		fmt.Fprintf(out, "maintenance: %d/%d ticks maintained, %.1f dirty rows/tick, %d reuses, %d patches, %d fallbacks\n",
			stats.MaintainTicks, cfg.ticks, // maintenance counters restart at zero on -resume
			float64(stats.DirtyRows)/float64(max(1, stats.MaintainTicks)),
			s.IndexReuses, s.IndexPatches, s.MaintainFallbacks)
	}
	return nil
}
