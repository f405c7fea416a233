// Package engine implements the discrete simulation engine of paper
// Section 2.2 and Section 6: the clock-tick loop with its query/decision,
// update, and movement stages, the post-processing query that applies
// combined effects to unit state — one pass per row with the planning of
// the row's move — collision detection with very simple pathfinding, and
// the resurrection rule that keeps the population constant.
//
// The engine runs the same game in two modes — the paper's central
// experimental comparison. Both run one decision phase, the compiled
// set-at-a-time plan, and differ only in how its aggregates and actions
// find their rows:
//
//   - Naive: every probe is an O(n) scan of all rows (O(n²) per tick);
//   - Indexed: probes use the index structures of Section 5.3
//     (O(n log n) per tick), including the Section 5.4 effect index for
//     area-of-effect actions.
//
// Both must produce identical game states tick-for-tick, and both must
// match the independent tree-walking evaluator of package interp; the
// differential tests enforce this.
package engine

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/grid"
	"github.com/epicscale/sgl/internal/index/ordmap"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Mode selects how the decision phase's aggregates and actions find
// their rows: by scanning (Naive) or through indexes (Indexed).
type Mode int

// Evaluator modes.
const (
	Naive Mode = iota
	Indexed
)

// String returns the mode label used in benchmark output.
func (m Mode) String() string {
	if m == Naive {
		return "naive"
	}
	return "indexed"
}

// Game supplies the game-mechanics half of the simulation: how combined
// effects turn into new unit state (the paper's post-processing query,
// Example 4.1) and how dead units respawn.
type Game interface {
	// ApplyEffects folds one tick's combined effects (indexed by schema
	// column; untouched effect columns hold their fold identities) into the
	// unit row, mutating state columns in place. It returns the unit's
	// desired movement and whether it survives; in the same pass, right
	// after the call, the engine plans that row's move from the row as it
	// left it. Neither slice may be retained past the call: the engine
	// reuses the effects buffer on the next tick.
	//
	// ApplyEffects must be safe for concurrent calls on distinct rows:
	// with Options.Workers > 1 (the default resolves to all cores) the
	// engine invokes it from several goroutines at once, each for a
	// disjoint row range. Implementations must not keep mutable state
	// across calls (scratch buffers, counters, logs) unless it is
	// synchronized. Respawn, by contrast, is always called serially.
	ApplyEffects(row []float64, effects []float64) (move geom.Vec, alive bool)

	// Respawn re-rolls a dead unit's state in place. The engine assigns a
	// fresh free position afterwards ("resurrected at a position chosen
	// uniformly at random on the grid"). Like ApplyEffects it must leave
	// the key column alone: a respawned unit is the same unit, and the
	// engine's key index and the maintained indexes carry keys from tick
	// to tick.
	Respawn(row []float64, st *rng.Stream)
}

// Options configure an engine run.
type Options struct {
	Mode Mode
	// Categoricals are the low-volatility partition attributes (player,
	// unit type).
	Categoricals []string
	// Seed drives every random decision of the run.
	Seed uint64
	// Side is the square world's edge length; positions live in
	// [0, Side) × [0, Side) with one unit per integer grid square.
	Side float64
	// MoveSpeed caps per-tick movement distance (WALK_DIST_PER_TICK).
	MoveSpeed float64
	// DisableAreaDefer turns off the Section 5.4 effect index so its
	// benefit can be measured (ablation A4); area actions then apply
	// through per-performer target reports.
	DisableAreaDefer bool
	// DisableOptimizer skips the algebraic rewrites (ablation).
	DisableOptimizer bool
	// Workers is the number of shards the tick's effect query runs across.
	// 0 picks runtime.GOMAXPROCS(0); 1 runs the same sharded code as one
	// shard, on the calling goroutine. Because the state-effect pattern
	// freezes the environment for the whole decision phase and effects
	// combine with commutative/associative folds merged in a fixed order,
	// the resulting environment is bit-identical for any Workers value.
	Workers int
	// Incremental is ignored.
	//
	// Deprecated: index maintenance has no switch. Every tick patches the
	// previous tick's index structures from its delta wherever that costs
	// less than a rebuild, and rebuilds the rest (DefaultIncrementalThreshold
	// decides, per structure); results are bit-identical either way.
	Incremental bool
	// CompactJournal folds the applied journal prefix into the base after
	// every tick (see compact.go): the journal — and with it the
	// checkpoint — stays proportional to the pending window instead of
	// the run's full input history, and checkpoints record the base tick
	// (format v3). The world's evolution is untouched; only the replay
	// window is, which is why this is an operational knob like Workers
	// (consulted from restore-time tune, never serialized). Replay from
	// before the base degrades explicitly via *CompactedError.
	CompactJournal bool

	// threshold replaces DefaultIncrementalThreshold when nonzero. Only
	// this package's differentials set it: 1 maintains whatever the
	// churn (the hostile setting), a tiny value falls back on any, and a
	// negative one never maintains — MaintainFrom is not called, so no
	// index is reused or patched and no answer carried: the
	// rebuild side of maintained ≡ rebuilt.
	threshold float64
	// midTick, when set, runs between a tick's decision phase and its
	// commit, the window a command arriving while a tick runs lands in.
	// Only this package's tests set it: to admit commands there, or to
	// hold the tick's decision accumulator to the tree walker's
	// (TestNaiveDecisionMatchesWalker). It exists for
	// TestCommandLandsInItsTicksView, which fails if the drain leaves the
	// commit. A mid-tick admission is stamped and applied like one made
	// just before Tick, so the mid-tick traffic the replay and resume
	// differentials carry takes the same path as theirs.
	midTick func(*Engine)
}

// DefaultIncrementalThreshold is the per-definition dirty-row fraction
// above which index maintenance falls back to a from-scratch rebuild
// (patching most of an index costs more than rebuilding it).
const DefaultIncrementalThreshold = 0.3

// Engine simulates one battle. The Engine itself is not safe for
// concurrent use (one Tick at a time), but a Tick internally fans the
// decision phase, effect accumulation, and post-processing out across
// Options.Workers goroutines.
type Engine struct {
	// prog is a private shallow clone of the caller's program with an
	// engine-owned Consts map, so OpTune commands mutate this engine's
	// constant table without touching other engines compiled from the
	// same program.
	prog   *sem.Program
	source string // canonical script text (ast printer), embedded in checkpoints
	game   Game
	opts   Options

	env  *table.Table
	src  rng.Source
	tick int64

	// Command-pipeline state (see command.go): the per-tick input buffer,
	// the run's input journal, and the per-origin sequence counters.
	// inmu guards them against the one writer that may run under the
	// session's READER lock — the pre-checkpoint admission drain — so
	// concurrent Journal/Pending/Checkpoint readers stay coherent; every
	// other mutation happens under the session's writer lock.
	inmu    sync.Mutex
	pending []StampedCommand
	journal []StampedCommand
	seqs    map[string]uint64
	// journalBase is the compaction base (compact.go): journal entries
	// stamped at or before it were folded into the base checkpoint.
	// Guarded by inmu like the journal itself.
	journalBase int64

	// Sharded admission state (admission.go): the per-origin queues of
	// submitted-but-unstamped commands and the atomic (queued + pending)
	// occupancy the buffer bound is enforced against.
	adm      admission
	inflight atomic.Int64

	// view is the published read view of the last committed tick (see
	// query.go): every observation read — queries, the tick counter, the
	// status counters, admission-time acknowledgments — loads it and takes
	// no lock. Stored at construction, at restore and at every tick
	// commit; never nil once New has returned.
	view atomic.Pointer[ReadView]

	// constNames is the immutable set of tunable constant names, fixed at
	// construction: OpTune updates values, never the key set, so the
	// lock-free admission path can validate names without reading the
	// mutable constant table.
	constNames map[string]struct{}

	an   *exec.Analyzer
	plan *algebra.Plan
	// applies is plan.Applies() — the order every decision path folds
	// effects in — and deferApply says, per Apply, whether its action goes
	// through the Section 5.4 effect index. Both are fixed with the plan.
	applies    []*algebra.Apply
	deferApply []bool
	// actSlot is, per Apply, its action's slot: a dense number per
	// distinct action the plan applies, slotActs[slot] that action. The
	// decision phase gathers deferred performers by slot (deferred, in
	// deferOrder's discovery order), in storage kept from tick to tick.
	actSlot    []int32
	slotActs   []*ast.ActDef
	deferred   [][]performer
	deferOrder []int32

	posX, posY int // schema columns
	fxCols     []int
	workers    int // resolved Options.Workers (>= 1)

	// Per-tick scratch kept across ticks while the population holds, so a
	// steady-state tick allocates none of it: the effect accumulator, the
	// key → row-index table (a flat ordmap; copied, then edited, by the
	// first spawn or despawn of a batch, since the published view shares
	// it), the shard boundaries, one plan
	// executor and one output buffer per shard, the movement stage's
	// death flags, plans and permutation, and the occupancy record
	// (movement.go).
	acc    *accumulator
	keys   *ordmap.Map
	bounds [][2]int
	execs  []*algebra.Executor
	outs   []shardOut
	dead   []bool
	plans  []movePlan
	perm   []int
	fx     effectIndex // the deferred-area effect index (decision.go)
	occ    occupancy

	// Delta state (incremental.go): the provider the current tick used
	// and the provider to maintain the next tick's indexes from, and the
	// tick's delta — what
	// changed since the previous read view — with whether it is valid.
	// popChanged marks a population change since the last capture: row
	// indexes shifted under the previous view, so no diff spans it.
	// tuned marks a constant tune since the last provider was built: the
	// next one rebuilds, as index build inputs read constants.
	tickProv   *exec.Indexed
	prevProv   *exec.Indexed
	delta      exec.Delta
	deltaOK    bool
	popChanged bool
	tuned      bool

	// viewCopied counts the rows publishView has copied since its last
	// full copy (see publishView). posBase is the position column that
	// copy gathered, posSince the rows named since, each once (posNamed
	// marks them): what a view's column is patched from when first read.
	viewCopied int
	posBase    []geom.Point
	posSince   []int
	posNamed   []bool
	// viewWork is Stats.IndexStats as of the last published view, which
	// the next view's TickWork counts from.
	viewWork exec.Stats

	// queryOneShots counts the probes read views answered
	// (QueryOneShots); readers bump it while a tick runs, so it is an
	// atomic outside Stats and reaches no checkpoint. Nothing else of a
	// query lives here: its analysis is on the Query, its providers on
	// the read view they index (query.go).
	queryOneShots atomic.Int64

	// Stats accumulates counters across ticks.
	Stats RunStats
}

// RunStats aggregates per-run counters.
type RunStats struct {
	Ticks          int
	EffectsApplied int
	Moves          int
	MovesBlocked   int
	Deaths         int
	// MaintainTicks counts the ticks whose indexes were patched from the
	// previous tick's; DirtyRows accumulates the
	// per-tick delta sizes those patches consumed. They describe how this
	// engine kept its indexes, not the world, so like IndexStats they are
	// not checkpointed and restart at zero on Open.
	MaintainTicks int
	DirtyRows     int
	// CommandsApplied and CommandsRejected count externally injected
	// commands by their apply-time outcome (see command.go; rejected
	// means the command's apply-time rule failed — the submission itself
	// was valid and is in the journal).
	CommandsApplied  int
	CommandsRejected int
	IndexStats       exec.Stats
	// EffectsByWorker splits EffectsApplied by the worker shard that
	// produced each effect row (all in slot 0 at Workers 1).
	EffectsByWorker []int
}

// New builds an engine over an initial environment. The environment's
// effect columns must be at their game defaults (normally all zero); the
// engine keeps that invariant across ticks. Every row must pass the rules
// a spawn command does — a unique key (*KeyError) and a position finite
// and inside [0, Side) (*PositionError) — and Side must lie in [1, 2^31].
func New(prog *sem.Program, game Game, initial *table.Table, opts Options) (*Engine, error) {
	e, err := build(prog, game, initial, opts)
	if err != nil {
		return nil, err
	}
	e.publishView()
	return e, nil
}

// build is New without the initial publish: restore adopts the
// checkpoint's tick and counters first and publishes once.
func build(prog *sem.Program, game Game, initial *table.Table, opts Options) (*Engine, error) {
	px, ok := prog.Schema.Col("posx")
	if !ok {
		return nil, fmt.Errorf("engine: schema needs posx")
	}
	py, ok := prog.Schema.Col("posy")
	if !ok {
		return nil, fmt.Errorf("engine: schema needs posy")
	}
	// The resurrection phase draws positions with Intn(int(Side)), so a
	// degenerate or non-finite side would panic mid-run; rejecting it here
	// also keeps the write and read sides of the checkpoint format in
	// agreement about what a valid world is.
	if !(opts.Side >= 1 && opts.Side <= maxSide) {
		return nil, fmt.Errorf("engine: world side must be in [1, 2^31], got %v", opts.Side)
	}
	if err := checkRows(initial, px, py, opts.Side); err != nil {
		return nil, err
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Clone the program shallowly with a private constant table: OpTune
	// commands retune THIS engine's constants; the caller's program (and
	// any sibling engine compiled from it) must stay untouched. The AST,
	// schema and resolution maps are immutable and stay shared.
	prog = prog.WithPrivateConsts()
	// The one place the modes differ: Naive's analyzer classifies every
	// definition as a scan, so the shared decision phase indexes nothing.
	var an *exec.Analyzer
	if opts.Mode == Naive {
		an = exec.NewScanAnalyzer(prog)
	} else {
		an = exec.NewAnalyzer(prog, opts.Categoricals)
	}
	e := &Engine{
		prog:    prog,
		source:  prog.Script.String(),
		game:    game,
		opts:    opts,
		env:     initial.Clone(),
		src:     rng.New(opts.Seed),
		an:      an,
		posX:    px,
		posY:    py,
		workers: w,
	}
	e.fxCols = prog.Schema.EffectCols()
	e.rebuildConstNames()
	e.Stats.EffectsByWorker = make([]int, w)
	plan, err := algebra.Translate(prog)
	if err != nil {
		return nil, err
	}
	if !opts.DisableOptimizer {
		algebra.Optimize(plan)
	}
	e.plan = plan
	if e.applies, err = plan.Applies(); err != nil {
		return nil, err
	}
	e.deferApply = make([]bool, len(e.applies))
	e.actSlot = make([]int32, len(e.applies))
	for j, ap := range e.applies {
		e.deferApply[j] = e.an.Act(ap.Def).Deferrable && !opts.DisableAreaDefer
		slot := slices.Index(e.slotActs, ap.Def)
		if slot < 0 {
			slot = len(e.slotActs)
			e.slotActs = append(e.slotActs, ap.Def)
		}
		e.actSlot[j] = int32(slot)
	}
	e.deferred = make([][]performer, len(e.slotActs))
	e.execs = make([]*algebra.Executor, w)
	e.outs = make([]shardOut, w)
	e.occ = occupancy{env: e.env, px: px, py: py, taken: grid.NewOccupancy(initial.Len())}
	return e, nil
}

// maxKey is the largest unit key. Every integer up to it is a float64, so
// a key is the same unit identity in the row (float64) and in every index
// keyed by it (int64).
const maxKey = 1 << 53

// maxSide is the largest world side. Every position inside [0, maxSide)
// floors to an int32, the occupancy table's square coordinate, so no
// in-world square depends on how the platform converts an out-of-range
// float.
const maxSide = 1 << 31

// inWorld is the rule a position coordinate obeys however the unit enters
// or moves in a world of the given side: finite, inside [0, side).
func inWorld(v, side float64) bool { return v >= 0 && v < side }

// finite reports whether v is neither NaN nor ±Inf: the rule every value
// a command writes, and every At probe's position, obeys.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkKey is the rule a unit key obeys however the unit enters a world —
// spawned by a command, or in the initial environment of New, Open, a PUT
// checkpoint or a replica bootstrap — or names it in a despawn or set
// command: a finite, non-negative integer of at most 2^53.
func checkKey[K int64 | float64](key K) error {
	if !(key >= 0 && key <= maxKey) || float64(key) != math.Trunc(float64(key)) {
		return fmt.Errorf("key %v must be a non-negative integer of at most 2^53", key)
	}
	return nil
}

// KeyError rejects an initial environment whose key column does not name
// its units: row Row's key breaks the key rule (Dup < 0), or row Dup
// already holds the same key. Keys are compared as the int64 unit
// identities every index uses, so no two rows can collapse into one.
type KeyError struct {
	Row int
	Key float64
	Dup int
}

func (e *KeyError) Error() string {
	if e.Dup >= 0 {
		return fmt.Sprintf("engine: initial environment rows %d and %d share key %v", e.Dup, e.Row, e.Key)
	}
	return fmt.Sprintf("engine: initial environment row %d: %v", e.Row, checkKey(e.Key))
}

// PositionError rejects an initial environment whose row Row stands
// outside the world: its (X, Y) breaks the rule a spawn or set command's
// position obeys (finite, inside [0, Side)).
type PositionError struct {
	Row        int
	X, Y, Side float64
}

func (e *PositionError) Error() string {
	return fmt.Sprintf("engine: initial environment row %d: position (%v, %v) is outside the world [0, %v)²", e.Row, e.X, e.Y, e.Side)
}

// checkRows applies the key rule and the position rule to every row of an
// initial environment, and requires the keys to be unique.
func checkRows(t *table.Table, px, py int, side float64) error {
	kc := t.Schema.KeyCol()
	seen := make(map[int64]int, t.Len())
	for i, row := range t.Rows {
		key := row[kc]
		if checkKey(key) != nil {
			return &KeyError{Row: i, Key: key, Dup: -1}
		}
		if j, ok := seen[int64(key)]; ok {
			return &KeyError{Row: i, Key: key, Dup: j}
		}
		seen[int64(key)] = i
		if !inWorld(row[px], side) || !inWorld(row[py], side) {
			return &PositionError{Row: i, X: row[px], Y: row[py], Side: side}
		}
	}
	return nil
}

// Env returns the live environment table (do not mutate).
func (e *Engine) Env() *table.Table { return e.env }

// TickCount returns the number of completed ticks. Like Env it reads the
// live engine and must not race a Tick; concurrent readers use
// ReadView().Tick().
func (e *Engine) TickCount() int64 { return e.tick }

// Workers returns the resolved worker count ticks run with (Options.
// Workers after defaulting, always >= 1).
func (e *Engine) Workers() int { return e.workers }

// Mode returns the evaluation mode the engine runs in: the one its
// options named, or, for an opened engine, its checkpoint's.
func (e *Engine) Mode() Mode { return e.opts.Mode }

// Plan returns the compiled plan. Kept for bench/, which compiles
// against it, and the lint/runtime differential.
func (e *Engine) Plan() *algebra.Plan { return e.plan }

// Analyzer returns the index-usability analysis the engine runs with.
// Kept for bench/, which compiles against it, and the lint/runtime
// differential.
func (e *Engine) Analyzer() *exec.Analyzer { return e.an }

// Run advances the simulation n ticks.
func (e *Engine) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := e.Tick(); err != nil {
			return err
		}
	}
	return nil
}

// Source returns the engine's script in canonical printed form (the ast
// printer's fixed point) — the text checkpoint format v2 embeds.
func (e *Engine) Source() string { return e.source }

// Program returns the engine's checked program. The engine owns its
// constant table (OpTune mutates it); treat the result as read-only.
func (e *Engine) Program() *sem.Program { return e.prog }

// rebuildConstNames derives the immutable tunable-name set the lock-free
// admission path validates OpTune against. Called at construction and
// after a restore adopts the checkpoint's constant table.
func (e *Engine) rebuildConstNames() {
	e.constNames = make(map[string]struct{}, len(e.prog.Consts))
	//sgl:unordered set construction; membership is order-free
	for k := range e.prog.Consts {
		e.constNames[k] = struct{}{}
	}
}

// Tick advances one clock tick. Each call to an engine method below is
// one phase of the tick pipeline in docs/ARCHITECTURE.md, in its order,
// save tickAccumulator, which fetches the scratch decide works in;
// TestTickPipelineDocumented holds the two lists together.
func (e *Engine) Tick() error {
	acc := e.tickAccumulator(e.env.Len())
	if err := e.decide(e.src.Tick(e.tick), acc); err != nil {
		return err
	}
	if e.opts.midTick != nil {
		e.opts.midTick(e)
	}
	e.postProcess(acc)
	e.move()
	e.resurrect(e.dead)
	e.applyCommands()
	e.captureIncremental()
	e.commit()
	return nil
}

// commit publishes the tick: from here on readers see it, and the
// previous view goes with its last reader.
func (e *Engine) commit() {
	e.tick++
	e.Stats.Ticks++
	e.publishView()
	if e.opts.CompactJournal {
		// Fold the entries this tick just applied into the base: the
		// journal stays proportional to the pending window.
		e.Compact()
	}
}

// keyIndex returns the key → row-index table of the current environment,
// built on first use. Keys are immutable and rows never reorder within a
// run, so the table survives from tick to tick; a spawn or despawn
// command edits a copy of it (applyCommands), never the table a
// published view or a provider holds.
func (e *Engine) keyIndex() *ordmap.Map {
	if e.keys == nil {
		e.keys = buildKeyIndex(e.env)
	}
	return e.keys
}

// buildKeyIndex maps every row's key to its row index.
func buildKeyIndex(env *table.Table) *ordmap.Map {
	idx := ordmap.New(env.Len())
	kc := env.Schema.KeyCol()
	for i, row := range env.Rows {
		idx.Put(int64(row[kc]), int32(i))
	}
	return idx
}

// countEffect records one applied effect attributed to a worker shard.
func (e *Engine) countEffect(worker int) {
	e.Stats.EffectsApplied++
	if worker >= 0 && worker < len(e.Stats.EffectsByWorker) {
		e.Stats.EffectsByWorker[worker]++
	}
}

// ---------------------------------------------------------------------------
// Effect accumulation

// accumulator folds effect rows per environment row, replacing the
// materialize-⊎-Combine pipeline with a single in-place ⊕ (the executed
// form of the Figure 6 (c)→(d) rewrite).
type accumulator struct {
	schema *table.Schema
	vals   [][]float64
}

func newAccumulator(s *table.Schema, n int) *accumulator {
	a := &accumulator{schema: s, vals: make([][]float64, n)}
	width := s.NumAttrs()
	flat := make([]float64, n*width)
	for i := range a.vals {
		a.vals[i] = flat[i*width : (i+1)*width]
	}
	a.reset()
	return a
}

// reset returns every effect column to its fold identity. Folds write
// effect columns only, so the rest of each row stays zero.
func (a *accumulator) reset() {
	fx := a.schema.EffectCols()
	for _, row := range a.vals {
		for _, c := range fx {
			row[c] = a.schema.Attr(c).Kind.Identity()
		}
	}
}

// tickAccumulator returns the tick's effect accumulator, reusing the
// previous tick's buffer while the population holds. Nothing outlives
// the tick that reads it (Game.ApplyEffects must not retain its
// arguments), and reusing it is what pays, byte for byte, for the row
// copy each commit publishes.
func (e *Engine) tickAccumulator(n int) *accumulator {
	if e.acc == nil || len(e.acc.vals) != n {
		e.acc = newAccumulator(e.prog.Schema, n)
	} else {
		e.acc.reset()
	}
	return e.acc
}

func (a *accumulator) fold(rowIdx, col int, v float64) {
	a.vals[rowIdx][col] = a.schema.Attr(col).Kind.Fold(a.vals[rowIdx][col], v)
}

func (a *accumulator) foldRow(rowIdx int, effectRow []float64) {
	for _, c := range a.schema.EffectCols() {
		a.vals[rowIdx][c] = a.schema.Attr(c).Kind.Fold(a.vals[rowIdx][c], effectRow[c])
	}
}
