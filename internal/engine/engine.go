// Package engine implements the discrete simulation engine of paper
// Section 2.2 and Section 6: the clock-tick loop with its query/decision,
// update, and movement stages, the post-processing query that applies
// combined effects to unit state, collision detection with very simple
// pathfinding, and the resurrection rule the experiments use to keep the
// population constant.
//
// The engine runs the same game under two interchangeable evaluators —
// the paper's central experimental comparison:
//
//   - Naive: the unit-at-a-time interpreter with O(n)-scan aggregates
//     (O(n²) per tick);
//   - Indexed: the compiled set-at-a-time plan over the index structures of
//     Section 5.3 (O(n log n) per tick), including the Section 5.4 effect
//     index for area-of-effect actions.
//
// Both must produce identical game states tick-for-tick; the differential
// tests enforce this.
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
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// Mode selects the aggregate query evaluator.
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
	// desired movement for the movement phase and whether it survives.
	// Neither slice may be retained past the call: the engine reuses the
	// effects buffer on the next tick.
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
	// 0 picks runtime.GOMAXPROCS(0); 1 is the serial path. Because the
	// state-effect pattern freezes the environment for the whole decision
	// phase and effects combine with commutative/associative folds merged
	// in a fixed order, the resulting environment is bit-identical for any
	// Workers value.
	Workers int
	// Incremental turns on delta-driven index maintenance for the Indexed
	// mode: each tick the engine records which rows changed and the next
	// tick's indexes are patched from the previous tick's instead of
	// rebuilt from scratch. Results are bit-identical to rebuilding
	// (proved by TestIncrementalMatchesRebuild); the only trade-off is
	// memory for the previous tick's structures and snapshot.
	Incremental bool
	// IncrementalThreshold is the per-definition dirty-row fraction above
	// which maintenance falls back to a from-scratch rebuild (patching
	// most of an index costs more than rebuilding it). 0 means
	// DefaultIncrementalThreshold; negative means rebuild whenever
	// anything relevant changed; values ≥ 1 always maintain.
	IncrementalThreshold float64
	// CompactJournal folds the applied journal prefix into the base after
	// every tick (see compact.go): the journal — and with it the
	// checkpoint — stays proportional to the pending window instead of
	// the run's full input history, and checkpoints record the base tick
	// (format v3). The world's evolution is untouched; only the replay
	// window is, which is why this is an operational knob like Workers
	// (consulted from restore-time tune, never serialized). Replay from
	// before the base degrades explicitly via *CompactedError.
	CompactJournal bool
}

// DefaultIncrementalThreshold is the dirty-fraction fallback cutoff used
// when Options.IncrementalThreshold is zero.
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
	// stamped before it were folded into the base checkpoint. Guarded by
	// inmu like the journal itself.
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

	posX, posY int // schema columns
	fxCols     []int
	workers    int // resolved Options.Workers (>= 1)

	// Per-tick scratch kept across ticks while the population holds, so a
	// steady-state tick allocates none of it: the effect accumulator, the
	// key → row-index map (rebuilt only when the key set changes: spawn
	// and despawn commands, restore), one plan executor per shard, the
	// post-processing and movement buffers, and the serial path's argument
	// and effect-row buffers.
	acc    *accumulator
	keyIdx map[int64]int
	execs  []*algebra.Executor
	moves  []geom.Vec
	dead   []bool
	plans  []movePlan
	argBuf []float64
	effRow []float64
	fx     effectIndex // the deferred-area effect index (decision.go)

	// The occupancy table the command mirror, movement and resurrection
	// share, carried across ticks (syncOcc): occSq is the square each row
	// held when the table was last brought up to date, and occOK says the
	// table is exactly those squares, one unit each — false until the
	// first refill, after a population change, and in a world where two
	// units share a square (there only the row-order refill decides who
	// holds it).
	occ   *grid.Occupancy
	occSq []grid.Square
	occOK bool

	// Incremental-maintenance state (Options.Incremental, Indexed mode):
	// the provider the current tick used, the provider and delta to
	// maintain the next tick's indexes from, and the flat row snapshot
	// the delta is computed against.
	tickProv *exec.Indexed
	prevProv *exec.Indexed
	incSnap  []float64
	delta    exec.Delta
	deltaOK  bool
	// cmdSets collects, per OpSet applied since the last capture, the
	// row and the column it wrote; cmdDelta is the same set sorted by row
	// with each row's columns merged — what applyCommands feeds the delta
	// and, because its snapshot sync hides the edits from the tick-end
	// diff, what capture adds back for maintainAnswers and the view.
	cmdSets  []rowCol
	cmdDelta exec.Delta

	// viewCopied counts the rows publishView has copied since its last
	// full copy (see publishView).
	viewCopied int

	// Observation-query state (see query.go): qmu guards the per-query
	// cache of analyzers and maintained answers. Index providers are not
	// here — they belong to the read view they index. queryOneShots counts
	// the probes views answered (QueryOneShots); readers bump it while a
	// tick runs, so it is an atomic outside Stats and reaches no checkpoint.
	qmu           sync.Mutex
	queries       queryState
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
	// previous tick's (Options.Incremental); DirtyRows accumulates the
	// per-tick delta sizes those patches consumed.
	MaintainTicks int
	DirtyRows     int
	// CommandsApplied and CommandsRejected count externally injected
	// commands by their apply-time outcome (see command.go; rejected
	// means the command's apply-time rule failed — the submission itself
	// was valid and is in the journal).
	CommandsApplied  int
	CommandsRejected int
	// Maintained-answer verdicts (answers.go): cached answers returned
	// untouched, patched in place, and marked for re-derivation. Like
	// IndexStats, deliberately not checkpoint-serialized — they depend on
	// which spectators were watching, not on the world.
	AnswerHits      int
	AnswerPatches   int
	AnswerRederives int
	IndexStats      exec.Stats
	// EffectsByWorker splits EffectsApplied by the worker shard that
	// produced each effect row (all in slot 0 on the serial path).
	EffectsByWorker []int
}

// New builds an engine over an initial environment. The environment's
// effect columns must be at their game defaults (normally all zero); the
// engine keeps that invariant across ticks.
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
	if err := checkKeys(initial); err != nil {
		return nil, err
	}
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
	if !(opts.Side >= 1) || math.IsInf(opts.Side, 0) {
		return nil, fmt.Errorf("engine: world side must be a finite value >= 1, got %v", opts.Side)
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
	e := &Engine{
		prog:    prog,
		source:  prog.Script.String(),
		game:    game,
		opts:    opts,
		env:     initial.Clone(),
		src:     rng.New(opts.Seed),
		an:      exec.NewAnalyzer(prog, opts.Categoricals),
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
	for j, ap := range e.applies {
		e.deferApply[j] = e.an.Act(ap.Def).Deferrable && !opts.DisableAreaDefer
	}
	e.execs = make([]*algebra.Executor, w)
	e.occ = grid.NewOccupancy(initial.Len())
	return e, nil
}

// maxKey is the largest unit key. Every integer up to it is a float64, so
// a key is the same unit identity in the row (float64) and in every index
// keyed by it (int64).
const maxKey = 1 << 53

// checkKey is the rule a unit key obeys however the unit enters a world —
// spawned by a command, or in the initial environment of New, Open,
// Restore, a PUT checkpoint or a replica bootstrap: a finite, non-negative
// integer of at most 2^53.
func checkKey(key float64) error {
	if !(key >= 0 && key <= maxKey) || key != math.Trunc(key) {
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

// checkKeys applies the key rule to every row of an initial environment,
// and requires the keys to be unique.
func checkKeys(t *table.Table) error {
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

// Plan returns the compiled plan (for explain tooling).
func (e *Engine) Plan() *algebra.Plan { return e.plan }

// Analyzer returns the index-usability analysis the engine runs with (for
// explain tooling and the lint/runtime consistency tests).
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

// Tick advances one clock tick through all phases.
func (e *Engine) Tick() error {
	// Stamp and drain externally injected commands first: queued sharded
	// admissions get their canonical (tick, origin, seq) stamps, then the
	// whole tick — key index, effect query, index builds — observes the
	// post-command world (see admission.go and command.go for the
	// ordering and determinism argument).
	e.inmu.Lock()
	e.drainAdmission()
	e.inmu.Unlock()
	e.applyCommands()

	r := e.src.Tick(e.tick)
	n := e.env.Len()
	acc := e.tickAccumulator(n)
	keyIdx := e.keyIndex()

	// Decision + action stages (query/decide/update of Section 2.2). With
	// Workers > 1 the effect query runs sharded over the frozen snapshot
	// and the per-shard effects merge at a barrier in serial fold order.
	var err error
	switch {
	case e.workers > 1:
		err = e.decideParallel(r, acc, keyIdx)
	case e.opts.Mode == Naive:
		err = e.decideNaive(r, acc, keyIdx)
	default:
		err = e.decideIndexed(r, acc, keyIdx)
	}
	if err != nil {
		return err
	}

	// Post-processing query (Example 4.1): combine effects into state.
	// Each row folds only its own accumulator slot, so the loop shards
	// cleanly; per-shard death counts merge in shard order.
	moves, dead := e.tickBuffers(n)
	bounds := e.shards(n)
	deaths := make([]int, len(bounds))
	runShards(bounds, func(s, lo, hi int) {
		for i := lo; i < hi; i++ {
			mv, alive := e.game.ApplyEffects(e.env.Rows[i], acc.vals[i])
			moves[i], dead[i] = mv, !alive
			if !alive {
				deaths[s]++
			}
		}
	})
	for _, d := range deaths {
		e.Stats.Deaths += d
	}

	// Movement phase: random order, collision detection, simple pathfinding.
	e.movementPhase(moves, dead)

	// Resurrection keeps the population constant (Section 6).
	e.resurrect(dead)

	// Record which rows this tick changed, so the next tick can patch the
	// previous indexes instead of rebuilding them.
	e.captureIncremental()

	// Classify every maintained answer against the fresh delta, then age
	// the per-query cache.
	e.maintainAnswers()
	e.evictIdleQueries()

	// Commit: from here on readers see this tick. The previous view (and
	// the index providers readers built on it) is garbage once the last
	// reader holding it returns.
	e.tick++
	e.Stats.Ticks++
	e.publishView()
	if e.opts.CompactJournal {
		// Fold the entries this tick just applied into the base: the
		// journal stays proportional to the pending window.
		e.Compact()
	}
	return nil
}

// keyIndex returns the key → row-index map of the current environment.
// Keys are immutable and rows never reorder within a run, so the map
// survives from tick to tick; whatever changes the key set (spawn and
// despawn commands, restore) drops it, and it is rebuilt here. A rebuild
// allocates a new map rather than editing the old one: the previous
// tick's provider may still hold that one.
func (e *Engine) keyIndex() map[int64]int {
	if e.keyIdx == nil {
		e.keyIdx = buildKeyIndex(e.env)
	}
	return e.keyIdx
}

// buildKeyIndex maps every row's key to its row index.
func buildKeyIndex(env *table.Table) map[int64]int {
	idx := make(map[int64]int, env.Len())
	kc := env.Schema.KeyCol()
	for i, row := range env.Rows {
		idx[int64(row[kc])] = i
	}
	return idx
}

// tickBuffers returns the post-processing outputs — desired moves and
// death flags, every slot of which the post-processing loop overwrites.
func (e *Engine) tickBuffers(n int) ([]geom.Vec, []bool) {
	if len(e.moves) != n {
		e.moves, e.dead = make([]geom.Vec, n), make([]bool, n)
	}
	return e.moves, e.dead
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

// ---------------------------------------------------------------------------
// Movement and resurrection

// movePlan is one mover's precomputed, world-clamped candidate squares:
// full step, then the two axis-aligned slides ("very simple pathfinding").
type movePlan struct {
	cands  [3]geom.Point
	active bool
}

// movementPhase runs in two stages. Candidate planning is pure per unit —
// a mover's clamped step and slide candidates depend only on its own
// frozen row and move vector, never on other units — so it runs sharded
// across the worker pool. The claim sweep that follows stays serial by
// design: each move in the random order observes the occupancy left by
// every earlier move (a unit can step into a square vacated this very
// tick), a sequential dependency chain the state-effect argument does not
// cover. Since planning is order-independent and the sweep consumes plans
// in the same permutation regardless of shard count, the phase is
// bit-identical at any Workers value.
func (e *Engine) movementPhase(moves []geom.Vec, dead []bool) {
	n := e.env.Len()
	if len(e.plans) != n {
		e.plans = make([]movePlan, n)
	}
	plans := e.plans // every slot is rewritten below
	runShards(e.shards(n), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if dead[i] || (moves[i].X == 0 && moves[i].Y == 0) {
				plans[i].active = false
				continue
			}
			row := e.env.Rows[i]
			mv := moves[i].Clamp(e.opts.MoveSpeed)
			x, y := row[e.posX], row[e.posY]
			plans[i] = movePlan{active: true, cands: [3]geom.Point{
				e.clampToWorld(geom.Point{X: x + mv.X, Y: y + mv.Y}),
				e.clampToWorld(geom.Point{X: x + mv.X, Y: y}),
				e.clampToWorld(geom.Point{X: x, Y: y + mv.Y}),
			}}
		}
	})

	e.syncOcc(nil)
	occ := e.occ
	kc := e.prog.Schema.KeyCol()
	st := rng.NewStream(e.src, 1_000_000+e.tick)
	for _, i := range st.Perm(n) {
		if !plans[i].active {
			continue
		}
		row := e.env.Rows[i]
		key := int64(row[kc])
		x, y := row[e.posX], row[e.posY]
		moved := false
		for _, cand := range plans[i].cands {
			if occ.Move(x, y, cand.X, cand.Y, key) {
				row[e.posX], row[e.posY] = cand.X, cand.Y
				e.occSq[i] = grid.SquareOf(cand.X, cand.Y)
				moved = true
				break
			}
		}
		if moved {
			e.Stats.Moves++
		} else {
			e.Stats.MovesBlocked++
		}
	}
}

func (e *Engine) clampToWorld(p geom.Point) geom.Point {
	max := e.opts.Side - 1e-9
	if max < 0 {
		max = 0
	}
	return geom.Rect{MinX: 0, MinY: 0, MaxX: max, MaxY: max}.ClampPoint(p)
}

func (e *Engine) resurrect(dead []bool) {
	e.syncOcc(dead)
	occ := e.occ
	kc := e.prog.Schema.KeyCol()
	for i, row := range e.env.Rows {
		if !dead[i] {
			continue
		}
		key := int64(row[kc])
		// Each corpse draws from its own substream keyed by (tick, unit):
		// the draw sequence is independent of resurrection order and of
		// the worker count, so respawns stay bit-identical at any
		// parallelism. (Square conflicts are still resolved serially in
		// row order below.)
		st := e.src.Substream(2_000_000+e.tick, key)
		e.game.Respawn(row, st)
		for tries := 0; ; tries++ {
			x := float64(st.Intn(int(e.opts.Side)))
			y := float64(st.Intn(int(e.opts.Side)))
			if sq := grid.SquareOf(x, y); occ.Claim(sq, key) {
				row[e.posX], row[e.posY] = x, y
				e.occSq[i] = sq
				break
			}
			if tries > 10*int(e.opts.Side*e.opts.Side) {
				// Pathological full grid: stack at origin rather than spin.
				// The unit now shares a square, so the carried table no
				// longer says who holds it.
				row[e.posX], row[e.posY] = 0, 0
				e.occOK = false
				break
			}
		}
	}
}

// syncOcc brings the occupancy table to "every row not marked in skip
// (nil: every row) placed in row order", whatever mutated the rows since
// it was last in sync — commands, the game's ApplyEffects, the moves and
// respawns the phases make themselves. With a valid record it releases
// the squares of the rows that left theirs (and of skipped rows) and
// claims the new ones, touching the map only for rows whose square
// changed; otherwise — first use, population change, a shared square —
// it refills the table from scratch. A claim that fails shows two units
// on one square: the refill, which lets the earlier row hold it, is
// then what decides, now and on every tick until the squares are
// distinct again.
func (e *Engine) syncOcc(skip []bool) {
	rows := e.env.Rows
	kc := e.prog.Schema.KeyCol()
	if e.occOK && len(e.occSq) == len(rows) {
		moved := false
		for i, row := range rows {
			if sq := grid.SquareOf(row[e.posX], row[e.posY]); sq != e.occSq[i] || (skip != nil && skip[i]) {
				e.occ.Release(e.occSq[i], int64(row[kc]))
				moved = true
			}
		}
		if !moved {
			return
		}
		ok := true
		for i, row := range rows {
			if skip != nil && skip[i] {
				continue
			}
			if sq := grid.SquareOf(row[e.posX], row[e.posY]); sq != e.occSq[i] {
				e.occSq[i] = sq
				if ok = e.occ.Claim(sq, int64(row[kc])); !ok {
					break
				}
			}
		}
		if ok {
			return
		}
	}
	e.occ.Reset()
	e.occSq = slices.Grow(e.occSq[:0], len(rows))[:len(rows)]
	e.occOK = true
	for i, row := range rows {
		e.occSq[i] = grid.SquareOf(row[e.posX], row[e.posY])
		if (skip == nil || !skip[i]) && !e.occ.Claim(e.occSq[i], int64(row[kc])) {
			e.occOK = false
		}
	}
}
