// Checkpoint/restore: pause a world, persist it, and resume it — on this
// process or another — with the continuation byte-identical to the run
// that never stopped.
//
// The contract is exact because the engine keeps no hidden sequential
// state between ticks. Every random decision is counter-based on
// (seed, tick, unit key, draw index), the movement permutation and the
// respawn substreams are re-derived from (seed, tick) alone, and the
// incremental-maintenance caches are a pure optimization proven
// bit-identical to rebuilding. The complete resumable state is therefore:
// the environment rows, the tick counter, the seed, the handful of
// options that change floating-point association (Mode, the ablation
// switches, world geometry) — and, since the command pipeline, the
// interactive inputs: the pending input buffer, the input journal, the
// per-origin sequence counters, and the (possibly retuned) constant
// table. Workers / Incremental / IncrementalThreshold / CompactJournal
// are deliberately NOT part of the format — a checkpoint taken at any
// setting resumes identically at any other, which is what lets an
// operator migrate a world onto different hardware (or switch a world's
// compaction policy in flight).
//
// Format version 3 is self-contained: it embeds the SGL script text (in
// the ast printer's canonical form) and the constant table, so Open can
// rebuild the whole session from the stream alone — no separate program,
// no sidecar file to keep paired with the snapshot. Layout
// (little-endian, FNV-1a checksum over everything before the trailer):
//
//	magic     "SGLCKPT\n"                     8 bytes
//	version   u32                             currently 3
//	seed      u64
//	tick      i64
//	mode      u8                              Naive / Indexed
//	flags     u8                              bit0 DisableAreaDefer, bit1 DisableOptimizer
//	side      f64 bits
//	movespeed f64 bits
//	cats      u32 count, then len-prefixed strings (categorical attributes)
//	stats     9 × i64                         Ticks, EffectsApplied, Moves,
//	                                          MovesBlocked, Deaths,
//	                                          MaintainTicks, DirtyRows,
//	                                          CommandsApplied, CommandsRejected
//	script    len-prefixed string             canonical SGL source
//	consts    u32 count, then (name, f64) sorted by name
//	schema    table codec schema section
//	rows      table codec row section
//	base      i64                             journal compaction base tick (v3+)
//	pending   u32 count, then stamped commands (input buffer)
//	journal   u32 count, then stamped commands (input journal tail)
//	seqs      u32 count, then (origin, u64) sorted by origin
//	checksum  u64                             FNV-1a of all preceding bytes
//
// Version 3 (this PR) added the single base field for journal compaction
// (compact.go): a nonzero base says the journal section is a tail — the
// history before the base was folded into this very snapshot, so the
// stream is a (base checkpoint + tail), not a genesis history. Version 2
// (the command pipeline PR) is the same layout without the base field
// and decodes with base 0; version 1 (PR 3) is the header through the
// schema/rows sections with 7 stats counters and no script/consts/
// inputs. This build keeps all three decoders and dispatches on the
// version tag. The version number is bumped on ANY layout change and
// never reused; readers reject versions they do not know. See ROADMAP.md
// for the compatibility policy.
package engine

import (
	"fmt"
	"io"
	"math"
	"sort"

	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// checkpointMagic identifies an SGL checkpoint stream.
const checkpointMagic = "SGLCKPT\n"

// CheckpointVersion is the format version this build writes. Reads accept
// this, CheckpointVersionV2 and CheckpointVersionV1.
const CheckpointVersion = 3

// CheckpointVersionV2 is the command-pipeline format: self-contained
// (embedded script, constants and inputs) but without the journal
// compaction base. Decodes with base 0 — a complete genesis journal.
const CheckpointVersionV2 = 2

// CheckpointVersionV1 is the PR 3 format: no embedded script, constants
// or inputs. Still readable through Restore (which takes the program the
// checkpointed engine ran); Open needs a self-contained version (v2+).
const CheckpointVersionV1 = 1

// Decode bounds for the self-describing sections.
const (
	// maxCategoricals bounds the categorical-attribute list a reader
	// accepts; real programs partition on a handful of attributes.
	maxCategoricals = 1 << 10
	// maxScriptBytes bounds the embedded script text.
	maxScriptBytes = 1 << 22
	// maxJournalEntries bounds the journal section a reader accepts.
	maxJournalEntries = 1 << 22
	// maxOrigins bounds the per-origin sequence-counter section.
	maxOrigins = 1 << 20
)

// Checkpoint serializes the engine's resumable state to w. It must be
// called between ticks (never concurrently with Tick); a Session
// serializes this automatically. The stream is self-describing and ends
// in a checksum, so Restore detects truncation and corruption. The
// written format is version 3: self-contained, embedding the script,
// the journal compaction base, and any pending or journaled inputs, so
// Open can reopen it with no other artifact. Commands still queued in
// the sharded admission buffers are stamped and drained into the stream
// first — an acknowledged Submit is always part of the checkpoint.
func (e *Engine) Checkpoint(w io.Writer) error {
	return e.checkpointVersioned(w, CheckpointVersion)
}

// checkpointVersioned writes the stream at a chosen format version —
// always CheckpointVersion in production; tests use it to synthesize
// genuine older-version streams for the back-compat and fuzz corpora.
// Writing v2 silently drops a nonzero journal base, so only uncompacted
// engines should be serialized that way.
func (e *Engine) checkpointVersioned(w io.Writer, version uint32) error {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	e.drainAdmission()
	cw := table.NewWriter(w)
	cw.Bytes([]byte(checkpointMagic))
	cw.U32(version)
	cw.U64(e.opts.Seed)
	cw.I64(e.tick)
	cw.U8(uint8(e.opts.Mode))
	var flags uint8
	if e.opts.DisableAreaDefer {
		flags |= 1
	}
	if e.opts.DisableOptimizer {
		flags |= 2
	}
	cw.U8(flags)
	cw.F64(e.opts.Side)
	cw.F64(e.opts.MoveSpeed)
	cw.U32(uint32(len(e.opts.Categoricals)))
	for _, c := range e.opts.Categoricals {
		cw.Str(c)
	}
	for _, v := range []int{
		e.Stats.Ticks, e.Stats.EffectsApplied, e.Stats.Moves,
		e.Stats.MovesBlocked, e.Stats.Deaths,
		e.Stats.MaintainTicks, e.Stats.DirtyRows,
		e.Stats.CommandsApplied, e.Stats.CommandsRejected,
	} {
		cw.I64(int64(v))
	}
	cw.Str(e.source)
	table.WriteConsts(cw, e.prog.Consts)
	table.WriteSchema(cw, e.prog.Schema)
	table.WriteRows(cw, e.env)
	if version >= CheckpointVersion {
		cw.I64(e.journalBase)
	}
	writeCommands(cw, e.pending)
	writeCommands(cw, e.journal)
	writeSeqs(cw, e.seqs)
	cw.U64(cw.Sum()) // trailer: checksum of everything above
	if err := cw.Err(); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return nil
}

// writeCommands encodes a stamped-command list section.
func writeCommands(cw *table.Writer, cmds []StampedCommand) {
	cw.U32(uint32(len(cmds)))
	for _, sc := range cmds {
		cw.I64(sc.Tick)
		cw.Str(sc.Origin)
		cw.U64(sc.Seq)
		cw.U8(uint8(sc.Cmd.Op))
		cw.I64(sc.Cmd.Key)
		cw.Str(sc.Cmd.Col)
		cw.F64(sc.Cmd.Val)
		cw.U32(uint32(len(sc.Cmd.Row)))
		for _, v := range sc.Cmd.Row {
			cw.F64(v)
		}
	}
}

// readCommands decodes a stamped-command list section, bounding every
// count before allocating.
func readCommands(cr *table.Reader, section string) ([]StampedCommand, error) {
	n := cr.U32()
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	if n > maxJournalEntries {
		err := fmt.Errorf("engine: %s section with %d entries exceeds limit %d", section, n, maxJournalEntries)
		cr.Fail(err)
		return nil, err
	}
	var cmds []StampedCommand
	for i := uint32(0); i < n; i++ {
		var sc StampedCommand
		sc.Tick = cr.I64()
		sc.Origin = cr.Str(MaxOriginLen)
		sc.Seq = cr.U64()
		sc.Cmd.Op = CommandOp(cr.U8())
		sc.Cmd.Key = cr.I64()
		sc.Cmd.Col = cr.Str(table.MaxNameLen)
		sc.Cmd.Val = cr.F64()
		rowLen := cr.U32()
		if cr.Err() != nil {
			return nil, cr.Err()
		}
		if sc.Cmd.Op > OpTune {
			err := fmt.Errorf("engine: %s entry %d has unknown op %d", section, i, sc.Cmd.Op)
			cr.Fail(err)
			return nil, err
		}
		if rowLen > table.MaxAttrs {
			err := fmt.Errorf("engine: %s entry %d row width %d exceeds limit %d", section, i, rowLen, table.MaxAttrs)
			cr.Fail(err)
			return nil, err
		}
		if rowLen > 0 {
			sc.Cmd.Row = make([]float64, rowLen)
			for c := range sc.Cmd.Row {
				sc.Cmd.Row[c] = cr.F64()
			}
		}
		if cr.Err() != nil {
			return nil, cr.Err()
		}
		cmds = append(cmds, sc)
	}
	return cmds, nil
}

// writeSeqs encodes the per-origin sequence counters sorted by origin, so
// equal maps always encode to equal bytes.
func writeSeqs(cw *table.Writer, seqs map[string]uint64) {
	origins := make([]string, 0, len(seqs))
	//sgl:unordered keys are collected and sorted before encoding
	for o := range seqs {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	cw.U32(uint32(len(origins)))
	for _, o := range origins {
		cw.Str(o)
		cw.U64(seqs[o])
	}
}

func readSeqs(cr *table.Reader) (map[string]uint64, error) {
	n := cr.U32()
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	if n > maxOrigins {
		err := fmt.Errorf("engine: sequence section with %d origins exceeds limit %d", n, maxOrigins)
		cr.Fail(err)
		return nil, err
	}
	seqs := make(map[string]uint64, n)
	for i := uint32(0); i < n; i++ {
		o := cr.Str(MaxOriginLen)
		v := cr.U64()
		if cr.Err() != nil {
			return nil, cr.Err()
		}
		seqs[o] = v
	}
	return seqs, nil
}

// checkpointPayload is a fully decoded, checksum-verified checkpoint
// stream, version-normalized: v1 streams decode with empty script/consts
// and no inputs, and pre-v3 streams decode with journal base 0.
type checkpointPayload struct {
	version   uint32
	seed      uint64
	tick      int64
	mode      Mode
	flags     uint8
	side      float64
	moveSpeed float64
	cats      []string
	counters  [9]int64
	script    string
	consts    map[string]float64
	schema    *table.Schema
	env       *table.Table
	base      int64
	pending   []StampedCommand
	journal   []StampedCommand
	seqs      map[string]uint64
}

// decodeCheckpoint reads and validates a checkpoint stream of any known
// version. Nothing engine-shaped is built until the trailing checksum has
// verified the bytes.
func decodeCheckpoint(r io.Reader) (*checkpointPayload, error) {
	cr := table.NewReader(r)
	var magic [8]byte
	cr.Bytes(magic[:])
	if cr.Err() == nil && string(magic[:]) != checkpointMagic {
		return nil, fmt.Errorf("engine: restore: not an SGL checkpoint (bad magic)")
	}
	p := &checkpointPayload{}
	p.version = cr.U32()
	if cr.Err() == nil && (p.version < CheckpointVersionV1 || p.version > CheckpointVersion) {
		return nil, fmt.Errorf("engine: restore: unsupported checkpoint version %d (this build reads %d through %d)",
			p.version, CheckpointVersionV1, CheckpointVersion)
	}
	p.seed = cr.U64()
	p.tick = cr.I64()
	p.mode = Mode(cr.U8())
	p.flags = cr.U8()
	p.side = cr.F64()
	p.moveSpeed = cr.F64()
	ncat := cr.U32()
	if cr.Err() == nil && ncat > maxCategoricals {
		return nil, fmt.Errorf("engine: restore: %d categorical attributes exceeds limit", ncat)
	}
	for i := uint32(0); i < ncat && cr.Err() == nil; i++ {
		p.cats = append(p.cats, cr.Str(table.MaxNameLen))
	}
	ncounters := len(p.counters)
	if p.version == CheckpointVersionV1 {
		ncounters = 7 // v1 predates the command counters
	}
	for i := 0; i < ncounters; i++ {
		p.counters[i] = cr.I64()
	}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if p.tick < 0 || p.mode > Indexed || p.flags > 3 {
		return nil, fmt.Errorf("engine: restore: malformed header (tick %d, mode %d, flags %d)", p.tick, p.mode, p.flags)
	}
	// The world geometry must be usable: resurrection draws positions in
	// [0, Side), so a degenerate or non-finite side would panic mid-tick.
	if !(p.side >= 1) || math.IsInf(p.side, 0) || !(p.moveSpeed >= 0) || math.IsInf(p.moveSpeed, 0) {
		return nil, fmt.Errorf("engine: restore: malformed world geometry (side %v, movespeed %v)", p.side, p.moveSpeed)
	}

	var err error
	if p.version >= CheckpointVersionV2 {
		p.script = cr.Str(maxScriptBytes)
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
		if p.consts, err = table.ReadConsts(cr); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
	}
	if p.schema, err = table.ReadSchema(cr); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if p.env, err = table.ReadRows(cr, p.schema); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if p.version >= CheckpointVersion {
		p.base = cr.I64()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
		if p.base < 0 || p.base > p.tick {
			return nil, fmt.Errorf("engine: restore: journal base %d outside [0, tick %d]", p.base, p.tick)
		}
	}
	if p.version >= CheckpointVersionV2 {
		if p.pending, err = readCommands(cr, "pending-input"); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
		if len(p.pending) > MaxPendingCommands {
			return nil, fmt.Errorf("engine: restore: %d pending commands exceeds limit %d", len(p.pending), MaxPendingCommands)
		}
		if p.journal, err = readCommands(cr, "journal"); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
		// A compacted stream's journal is a tail: every surviving entry is
		// stamped at or after the base. An entry from before the base
		// contradicts the base field — one of them is corrupt.
		for i, sc := range p.journal {
			if sc.Tick < p.base {
				return nil, fmt.Errorf("engine: restore: journal entry %d stamped tick %d predates journal base %d", i, sc.Tick, p.base)
			}
		}
		if p.seqs, err = readSeqs(cr); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
	}
	sum := cr.Sum() // checksum of everything consumed so far
	stored := cr.U64()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("engine: restore: checksum mismatch (stored %016x, computed %016x): corrupted checkpoint", stored, sum)
	}
	return p, nil
}

// buildRestored constructs the engine a verified payload describes,
// running the program prog (whose schema must already be known to match
// the payload's).
func buildRestored(p *checkpointPayload, prog *sem.Program, g Game, tune Options) (*Engine, error) {
	// Decode rows against prog's schema so the environment shares the
	// program's schema object (pointer identity matters to plan operators).
	p.env.Schema = prog.Schema
	e, err := build(prog, g, p.env, Options{
		Mode:                 p.mode,
		Categoricals:         p.cats,
		Seed:                 p.seed,
		Side:                 p.side,
		MoveSpeed:            p.moveSpeed,
		DisableAreaDefer:     p.flags&1 != 0,
		DisableOptimizer:     p.flags&2 != 0,
		Workers:              tune.Workers,
		Incremental:          tune.Incremental,
		IncrementalThreshold: tune.IncrementalThreshold,
		CompactJournal:       tune.CompactJournal,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	e.tick = p.tick
	e.Stats.Ticks = int(p.counters[0])
	e.Stats.EffectsApplied = int(p.counters[1])
	e.Stats.Moves = int(p.counters[2])
	e.Stats.MovesBlocked = int(p.counters[3])
	e.Stats.Deaths = int(p.counters[4])
	e.Stats.MaintainTicks = int(p.counters[5])
	e.Stats.DirtyRows = int(p.counters[6])
	e.Stats.CommandsApplied = int(p.counters[7])
	e.Stats.CommandsRejected = int(p.counters[8])
	if p.version >= CheckpointVersionV2 {
		// The v2+ payload is authoritative for everything interactive: the
		// constant table with any OpTune history folded in, the journal
		// base, and the input state. The script source is NOT adopted —
		// the engine runs prog, and its canonical print equals the
		// embedded text whenever the programs match (the ast printer is a
		// parse/print fixed point), which keeps restore → checkpoint a
		// byte fixed point.
		e.prog.AdoptConsts(p.consts)
		e.rebuildConstNames()
		e.journal = p.journal
		e.journalBase = p.base
		e.seqs = p.seqs
		// Pending commands apply at the next tick; re-validate them against
		// the rebuilt engine so a hostile-but-checksummed stream cannot
		// smuggle a row that would panic the apply path.
		for i := range p.pending {
			if err := e.validateCommand(&p.pending[i].Cmd); err != nil {
				return nil, fmt.Errorf("engine: restore: pending command %d: %w", i, err)
			}
		}
		e.pending = p.pending
		e.inflight.Store(int64(len(p.pending)))
	}
	// Readers start where the writer stopped: the first published view
	// carries the checkpoint's tick and counters.
	e.publishView()
	return e, nil
}

// Restore reopens a checkpoint written by Checkpoint and returns an
// engine positioned exactly where the writer stopped: same environment,
// same tick counter, same seed and semantic options, with the cumulative
// run counters (deaths, moves, …) and — for version-2 checkpoints — the
// input journal, pending commands and retuned constants carried over.
// Continuing the restored engine produces environments byte-identical to
// the run that was never interrupted.
//
// prog must be the program the checkpointed engine ran (the embedded
// schema is verified against prog's); for self-contained version-2+
// checkpoints, Open rebuilds the program from the stream instead and
// needs no prog at all. Of tune, only the determinism-neutral execution
// knobs are consulted — Workers, Incremental, IncrementalThreshold,
// CompactJournal — so a world checkpointed on one machine can resume
// with a different parallelism, maintenance, or compaction strategy
// without changing a single output bit. Everything else (Mode, Seed,
// Side, MoveSpeed, Categoricals, ablation switches, and on v2+ the
// constant table and journal base) comes from the checkpoint itself.
//
// Restored measurement state starts fresh where it is configuration-
// dependent: RunStats.IndexStats and EffectsByWorker count work done by
// *this* engine's evaluator and worker layout, so they restart at zero.
func Restore(r io.Reader, prog *sem.Program, g Game, tune Options) (*Engine, error) {
	p, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if !p.schema.Equal(prog.Schema) {
		return nil, fmt.Errorf("engine: restore: checkpoint schema %v does not match program schema %v", p.schema, prog.Schema)
	}
	return buildRestored(p, prog, g, tune)
}

// Open reopens a self-contained (version 2 or 3) checkpoint as a ready-
// to-serve Session, rebuilding the program from the embedded script and
// constant table — the whole world from one stream, nothing to pair it
// with. Version-1 checkpoints predate the embedded script and are
// rejected with an explanatory error; reopen those through Restore with
// the program they ran. tune follows Restore's contract: only the
// determinism-neutral knobs — Workers, Incremental,
// IncrementalThreshold, CompactJournal — are consulted.
func Open(r io.Reader, g Game, tune Options) (*Session, error) {
	p, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if p.version < CheckpointVersionV2 {
		return nil, fmt.Errorf("engine: open: checkpoint version %d has no embedded script; restore it with Restore and the program it ran", p.version)
	}
	script, err := parser.Parse(p.script)
	if err != nil {
		return nil, fmt.Errorf("engine: open: embedded script: %w", err)
	}
	prog, err := sem.Check(script, p.schema, p.consts)
	if err != nil {
		return nil, fmt.Errorf("engine: open: embedded script: %w", err)
	}
	e, err := buildRestored(p, prog, g, tune)
	if err != nil {
		return nil, err
	}
	return NewSession(e), nil
}
