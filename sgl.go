// Package sgl is a scalable game-AI engine built on data-management
// techniques: an implementation of "Scaling Games to Epic Proportions"
// (White, Demers, Koch, Gehrke, Rajagopalan — SIGMOD 2007).
//
// Game AI for large numbers of non-player characters is treated as a query
// processing problem. Per-unit behavior is written in SGL, a small
// functional scripting language; scripts are compiled to a bag-algebra
// plan, optimized with relational rewrite rules, and executed
// set-at-a-time over per-tick index structures (layered range trees with
// fractional cascading, kD-trees, sweep lines), turning an O(n²) tick into
// O(n log n).
//
// # Quick start
//
//	prog, err := sgl.CompileScript(src, schema, consts)   // SGL → checked program
//	eng, err := sgl.NewEngine(prog, mechanics, army, opts) // opts.Mode: Naive or Indexed
//	err = eng.Run(500)                                     // simulate 500 clock ticks
//
// The battle simulation of the paper's Section 3.2 ships ready-made:
//
//	prog, _ := sgl.CompileBattle()
//	army := sgl.GenerateArmy(sgl.ArmySpec{Units: 10000, Density: 0.01, Seed: 1})
//	eng, _ := sgl.NewBattleEngine(prog, army, sgl.Indexed, 1)
//	eng.Run(500)
//
// # Parallel execution
//
// The state-effect pattern makes a tick a set-at-a-time query: scripts
// only read the frozen tick snapshot and emit effects combined with
// commutative/associative folds, so tick execution shards across cores.
// EngineOptions.Workers sets the shard count (0 = all cores; 1 runs the
// same sharded code as a single shard):
//
//	eng, _ := sgl.NewEngine(prog, mech, army, sgl.EngineOptions{
//		Mode: sgl.Indexed, Workers: 0, /* … */
//	})
//
// The determinism contract is strict: for any program, any tick count,
// and any Workers value, the environment is byte-identical to the
// one-shard run. Three mechanisms make that hold — randomness is counter-based
// (hashed from seed, tick, unit key, and draw index, so values do not
// depend on evaluation order; sequential draws such as respawn placement
// use per-unit substreams), shards are contiguous row ranges whose effect
// buffers merge at a barrier in one fold order (plan-node major, row
// minor), and with several shards every per-tick index is built once and
// then probed read-only by all workers. Pick Workers = physical cores for throughput;
// there is no accuracy trade-off to weigh, and per-worker effect counts
// are reported in RunStats.EffectsByWorker.
//
// # Incremental index maintenance
//
// The paper rebuilds every per-tick index from scratch; between
// consecutive ticks, though, only the units that moved, fought, or died
// change the attributes the indexes key on. Every tick the engine
// bit-diffs its rows against the read view the previous tick published
// into a per-row changed-column mask, and patches the previous tick's
// structures from it instead of rebuilding: clean categorical partitions
// are reused outright, partitions whose members changed only payload
// attributes (health under a stationary melee line) keep their sort order
// and recompute prefix aggregates in place, and everything else rebuilds
// at partition granularity. Maintenance has no switch: it always engages,
// and the threshold decides. A structure whose relevant churn passes a
// fixed fraction of the rows (0.3) is rebuilt from scratch instead, where
// patching would cost more than it saves — on a high-churn battle that is
// nearly every structure, every tick. EngineOptions.Incremental is
// ignored.
//
// The determinism argument carries over: every value baked into an index
// at build time is a pure function of the owning row's attributes (the
// analyzer rejects Random there), so bit-unchanged rows contribute
// bit-identical index content and a maintained provider answers every
// probe exactly like a freshly built one. TestIncrementalMatchesRebuild
// proves byte-identical environments across the whole script zoo and the
// battle simulation, per tick, at Workers 1 and 4, against an engine
// that never maintains. On low-churn workloads (a garrison watching a
// front while scouts patrol) ticks run ≈2× faster at 10k units; on
// high-churn workloads the threshold keeps the cost within noise of
// rebuilding. RunStats reports MaintainTicks,
// DirtyRows, and the structure-level reuse/patch/fallback counters.
//
// # Sessions, checkpoints and queries
//
// A production world is not a batch job: it pauses, persists, migrates
// between machines, and answers spectators while it runs. The Session
// API wraps an Engine for exactly that shape of use:
//
//	sess := sgl.NewSession(eng)
//	sess.OnTick(func(tick int64, stats sgl.RunStats) { … })  // per-tick hook
//	err = sess.Step(100)                                     // advance the clock
//	out, err := sess.Query(q, args...)                       // observe, concurrently
//	err = sess.Checkpoint(file)                              // persist the world
//
// Checkpoint writes a versioned, self-describing, checksummed binary
// snapshot — environment rows, tick counter, seed, and the options that
// affect determinism — and Open reopens it under any execution tuning:
//
//	sess, err := sgl.Open(file, mech, sgl.EngineOptions{Workers: 8})
//
// The exactness contract extends the parallel and maintenance ones:
// because all randomness is counter-based on (seed, tick, unit key,
// draw index) and the engine keeps no other cross-tick state, a restored
// engine continues byte-identically to the run that was never
// interrupted — at any Workers setting, which is deliberately excluded
// from the format so a world can migrate onto
// different hardware (TestCheckpointResumeBitIdentical proves this over
// the whole script zoo and the battle simulation). Corrupted or
// truncated checkpoints are rejected by checksum before any state is
// built.
//
// Observation queries are the read half: CompileQuery compiles the
// read-only SGL subset — aggregate definitions with filters, categorical
// and range predicates, nearest-neighbour and extremum outputs; no
// actions, no effects, no Random — and a read view of the last committed
// tick evaluates one through a Probe: World (no probe unit), At an
// observer position, or a live Unit by key:
//
//	q, err := sgl.CompileQuery(`
//	  aggregate Zone(u, x, y, r) :=
//	    count(*) as n, sum(e.health) as hp
//	    over e where e.posx >= x - r and e.posx <= x + r
//	      and e.posy >= y - r and e.posy <= y + r;`, schema, consts)
//	v := eng.ReadView()
//	out, err := v.Query(q, sgl.World(), 120, 80, 16)  // world query
//	out, err = v.Query(q2, sgl.At(120, 80))           // from an observer position
//	out, err = v.Query(q3, sgl.Unit(unitKey))         // through a live unit's eyes
//	out, err = sess.Query(q, 120, 80, 16)             // Session shorthand, World probe
//
// Queries run on the same machinery as the tick, but a view builds no
// index: the first evaluation of a query on a view scans that query's
// membership (which rows pass its filter, in which partition), and every
// evaluation — including concurrent ones, each through a private fork —
// answers one-shot against it, adding the same floats in the same order a
// built index would. A tick builds its indexes because n units probe
// them; a view sees a handful of probes per query. QueryScan evaluates the
// same query by a naive O(n) scan (the pluggable-evaluator duality of the
// paper, applied to reads); differential tests prove both agree on every
// output class. A push subscription is the same one-shot on the view of
// each tick, so a pushed answer is the polled one. Reads take no lock: every
// tick commit publishes an immutable ReadView, so any number of reader
// goroutines run beside Step, never behind it, and a query issued
// mid-tick answers for the tick before. Session.ReadView hands out the
// view itself when several reads must share one tick.
//
// # Interactive sessions: injected commands
//
// Spectators read; players act. Session.Submit injects typed commands —
// spawn a unit, despawn one, set a state column, retune a game constant
// — into a per-tick input buffer that the engine drains at the next
// tick's commit, after its decision and movement and before it publishes
// its read view, so that view and every later decision see them:
//
//	err = sess.Submit("player-1",
//	    sgl.Command{Op: sgl.OpSet, Key: 17, Col: "morale", Val: 9},
//	    sgl.Command{Op: sgl.OpDespawn, Key: 41},
//	)
//
// Commands apply in a canonical order — (tick, origin, sequence), the
// stamp Submit assigns — so the resulting world depends only on what was
// submitted during a tick window, never on how the submissions
// interleaved. Commands whose apply-time rules fail (a spawn onto an
// occupied square, a despawn of a dead key) are rejected
// deterministically and counted in RunStats.CommandsRejected.
//
// Every accepted command is also recorded in the session's input
// journal (Session.Journal), which yields exactness contract #5: a run
// replayed from the journal — same program, same initial environment,
// same seed, each entry re-submitted before the tick whose commit applies
// it — is byte-identical
// to the live interactive run, at any Workers setting
// (TestReplayMatchesLive proves it over the script zoo and the battle
// simulation).
//
// Checkpoints participate too: a checkpoint embeds the script text, the
// constant table, the journal, its compaction base and any still-pending
// commands, so it is one self-contained stream that Open reopens with no
// other artifact. Checkpoints in an older format version are rewritten
// by `sglc -upgrade`, the one reader of the older layouts.
//
// # Serving many worlds
//
// One process can host many concurrent worlds: the sgld daemon
// (cmd/sgld) keeps a registry of named Sessions behind an HTTP/JSON
// API — create a world from an SGL script, run its clock at a target
// tick rate on its own goroutine, fan observation queries out to any
// number of spectators (each distinct query source compiles once and
// shares one membership scan per committed tick), checkpoint it to disk,
// and restore it into a new session under different tuning, which is
// live migration. Serving is itself covered by an exactness contract: a
// world stepped over HTTP under concurrent spectator load checkpoints
// byte-identically to the same (script, seed, ticks) run standalone.
// Operational counters are exposed on /metrics in Prometheus text
// format; the repository benchmark (bench/) measures serving under
// spectator load and through the cluster gateway.
//
// See the examples/ directory for runnable programs (examples/checkpoint
// demonstrates the session lifecycle end to end), cmd/ for the sglc,
// battlesim, benchfig and sgld tools, and docs/ for the architecture
// overview (docs/ARCHITECTURE.md), the SGL language reference
// (docs/LANGUAGE.md), and the CLI guide (docs/CLI.md).
package sgl

import (
	"io"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
	"github.com/epicscale/sgl/internal/workload"
)

// Core data-model types (see internal/table for full documentation).
type (
	// Schema is a typed environment schema E(K, A1…Ak) whose attributes
	// carry the combination kinds const/sum/max/min.
	Schema = table.Schema
	// Attr is one schema attribute.
	Attr = table.Attr
	// Kind is an attribute's combination type.
	Kind = table.Kind
	// Table is a multiset relation over a Schema.
	Table = table.Table
	// Program is a parsed and semantically checked SGL script.
	Program = sem.Program
	// Plan is a compiled bag-algebra plan.
	Plan = algebra.Plan
	// Engine is the discrete simulation engine.
	Engine = engine.Engine
	// EngineOptions configure an engine run.
	EngineOptions = engine.Options
	// Mode selects the aggregate query evaluator.
	Mode = engine.Mode
	// Mechanics is the game-rules half of a simulation (the
	// post-processing query and the respawn rule).
	Mechanics = engine.Game
	// ArmySpec describes a generated battle workload.
	ArmySpec = workload.Spec
	// RunStats are the engine's cumulative run counters.
	RunStats = engine.RunStats
	// Session is the long-lived facade over an Engine: Step, concurrent
	// world queries, Checkpoint, and a per-tick stats hook.
	Session = engine.Session
	// StatsFunc observes the engine after each tick of a Session.Step.
	StatsFunc = engine.StatsFunc
	// Query is a compiled read-only observation query.
	Query = engine.Query
	// ReadView is one committed tick published for lock-free readers: the
	// tick number, the status counters, and Query and QueryScan through
	// any Probe, all describing the same state (Engine.ReadView,
	// Session.ReadView).
	ReadView = engine.ReadView
	// Probe is the unit a query evaluation looks through: none (World),
	// an observer at a position (At), or a live unit by key (Unit).
	Probe = engine.Probe
	// Command is one externally injected world mutation (spawn, despawn,
	// set-column, tune-const), submitted through Session.Submit.
	Command = engine.Command
	// CommandOp selects a Command's mutation.
	CommandOp = engine.CommandOp
	// StampedCommand is a command plus its (tick, origin, sequence)
	// stamp — the canonical application order and the journal entry.
	StampedCommand = engine.StampedCommand
)

// Command operations (see Command).
const (
	// OpSpawn inserts a new unit row (Command.Row, full schema width).
	OpSpawn = engine.OpSpawn
	// OpDespawn removes the unit with Command.Key.
	OpDespawn = engine.OpDespawn
	// OpSet overwrites one state column of the unit with Command.Key.
	OpSet = engine.OpSet
	// OpTune changes a named game constant from the decision its stamp
	// names on.
	OpTune = engine.OpTune
)

// CheckpointVersion is the checkpoint format version this build writes
// and the only one Open reads; `sglc -upgrade` rewrites older
// checkpoints as this version. See ROADMAP.md for the version policy.
const CheckpointVersion = engine.CheckpointVersion

// Attribute combination kinds (paper Section 4.2).
const (
	Const = table.Const
	Sum   = table.Sum
	Max   = table.Max
	Min   = table.Min
)

// Evaluator modes: the paper's two pluggable aggregate query evaluators.
const (
	Naive   = engine.Naive
	Indexed = engine.Indexed
)

// World is the probe of a world query, one that reads no attribute of a
// probe unit.
func World() Probe { return engine.World() }

// At probes a query from an observer at (x, y).
func At(x, y float64) Probe { return engine.At(x, y) }

// Unit probes a query through the eyes of the live unit with the given
// key.
func Unit(key int64) Probe { return engine.Unit(key) }

// NewSchema builds an environment schema; exactly one Const attribute must
// be named "key".
func NewSchema(attrs ...Attr) (*Schema, error) { return table.NewSchema(attrs...) }

// NewTable returns an empty environment table over the schema.
func NewTable(s *Schema, capacity int) *Table { return table.New(s, capacity) }

// CompileScript parses and type-checks SGL source against a schema and a
// game-constant table.
func CompileScript(src string, schema *Schema, consts map[string]float64) (*Program, error) {
	script, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return sem.Check(script, schema, consts)
}

// CompilePlan translates a checked program into an optimized bag-algebra
// plan (the engine does this internally; exposed for plan inspection).
func CompilePlan(prog *Program) (*Plan, error) {
	plan, err := algebra.Translate(prog)
	if err != nil {
		return nil, err
	}
	return algebra.Optimize(plan), nil
}

// NewEngine builds a simulation engine over an initial environment. It
// rejects a row whose key is not a unique integer in [0, 2^53], or whose
// position is not finite and inside [0, Side), and a Side outside
// [1, 2^31].
func NewEngine(prog *Program, mech Mechanics, initial *Table, opts EngineOptions) (*Engine, error) {
	return engine.New(prog, mech, initial, opts)
}

// NewSession wraps an engine in the session facade, adding the locking
// that makes Step, Checkpoint and the journal reads safe together (query
// reads need none: they evaluate on the published ReadView).
func NewSession(e *Engine) *Session { return engine.NewSession(e) }

// Open reopens a self-contained checkpoint as a ready-to-serve Session.
// The program is rebuilt from the script text and constant table
// embedded in the stream, so no separate prog — and no sidecar file — is
// needed: a checkpoint is the whole world. Of tune, only the
// determinism-neutral knobs (Workers, CompactJournal) are
// consulted; the restored session continues byte-identically to the run
// that was never interrupted, including any commands that were pending
// when the checkpoint was written. A checkpoint in an older format
// version is rejected with an error naming `sglc -upgrade`, which
// rewrites it.
func Open(r io.Reader, mech Mechanics, tune EngineOptions) (*Session, error) {
	return engine.Open(r, mech, tune)
}

// CompileQuery parses and checks a read-only observation query — the
// SGL aggregate-definition subset: filters, categorical and range
// predicates, and aggregate outputs; no actions, no effects, no Random.
// The last aggregate declared is the entry point. Evaluate the result
// on a ReadView through a Probe (ReadView.Query, ReadView.QueryScan),
// or — for world queries — with the Session shorthands.
func CompileQuery(src string, schema *Schema, consts map[string]float64) (*Query, error) {
	return engine.CompileQuery(src, schema, consts)
}

// ---------------------------------------------------------------------------
// Battle-simulation convenience layer (the paper's Section 3.2 case study)

// BattleSchema returns the battle simulation's environment schema.
func BattleSchema() *Schema { return game.Schema() }

// BattleConsts returns the battle simulation's game constants.
func BattleConsts() map[string]float64 { return game.Consts() }

// BattleScript is the battle simulation's full SGL source.
const BattleScript = game.Script

// CompileBattle compiles the built-in battle simulation.
func CompileBattle() (*Program, error) { return game.Compile() }

// NewBattleMechanics returns the battle post-processor (d20 rules).
func NewBattleMechanics() Mechanics { return game.NewMechanics() }

// GenerateArmy builds an initial battle environment.
func GenerateArmy(spec ArmySpec) *Table { return workload.Generate(spec) }

// NewBattleEngine wires the battle program, mechanics and army together
// with the standard options (world sized from the army's density spec).
// Use NewBattleEngineOpts to keep control of the execution knobs
// (Workers, CompactJournal, …) the standard options would otherwise pin.
func NewBattleEngine(prog *Program, spec ArmySpec, mode Mode, seed uint64) (*Engine, error) {
	return NewBattleEngineOpts(prog, spec, EngineOptions{Mode: mode, Seed: seed})
}

// NewBattleEngineOpts builds a battle engine with caller-supplied
// options. The battle-specific fields are defaulted when zero —
// Categoricals to the battle schema's partition attributes, Side to the
// spec's grid, MoveSpeed to 1 — and every other field (Mode, Seed,
// Workers, CompactJournal, ablation switches) is passed through untouched.
func NewBattleEngineOpts(prog *Program, spec ArmySpec, opts EngineOptions) (*Engine, error) {
	if opts.Categoricals == nil {
		opts.Categoricals = game.Categoricals()
	}
	if opts.Side == 0 {
		opts.Side = spec.Side()
	}
	if opts.MoveSpeed == 0 {
		opts.MoveSpeed = 1
	}
	return engine.New(prog, game.NewMechanics(), workload.Generate(spec), opts)
}
