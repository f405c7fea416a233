// Checkpoint/open: pause a world, persist it, and resume it — on this
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
// table. Workers / CompactJournal are deliberately NOT
// part of the format, and neither is anything they move: the bytes are a
// function of the world alone, so a checkpoint taken at any setting
// equals one taken at any other and resumes identically under any other,
// which is what lets an operator migrate a world onto different hardware
// (or switch a world's compaction policy in flight).
//
// Format version 5 is self-contained: it embeds the SGL script text (in
// the ast printer's canonical form) and the constant table, so Open can
// rebuild the whole session from the stream alone — no separate program,
// no sidecar file to keep paired with the snapshot. Layout
// (little-endian, FNV-1a checksum over everything before the trailer):
//
//	magic     "SGLCKPT\n"                     8 bytes
//	version   u32                             4
//	seed      u64
//	tick      i64
//	mode      u8                              Naive / Indexed
//	flags     u8                              bit0 DisableAreaDefer, bit1 DisableOptimizer
//	side      f64 bits
//	movespeed f64 bits
//	cats      u32 count, then len-prefixed strings (categorical attributes)
//	stats     7 × i64                         Ticks, EffectsApplied, Moves,
//	                                          MovesBlocked, Deaths,
//	                                          CommandsApplied, CommandsRejected
//	script    len-prefixed string             canonical SGL source
//	consts    u32 count, then (name, f64) sorted by name
//	schema    table codec schema section
//	rows      table codec row section
//	base      i64                             journal compaction base tick
//	pending   u32 count, then stamped commands (input buffer, all
//	                                          stamped tick+1)
//	journal   u32 count, then stamped commands (input journal tail)
//	seqs      u32 count, then (origin, u64) sorted by origin
//	checksum  u64                             FNV-1a of all preceding bytes
//
// The rows are the world at the tick: every command stamped at or before
// it is applied (admission.go's stampTick rule), and the pending entries
// precede the next decision. A nonzero base says the journal section is
// a tail: the history stamped at or before the base was folded into this
// very snapshot (compact.go), so the stream is a (base checkpoint +
// tail), not a genesis history.
//
// Open reads version 5 alone. Upgrade (the sglc -upgrade tool) is the one
// reader of the older layouts, and rewrites them as version 5:
//
//   - version 4 has this layout, but its pending entries are stamped
//     with the checkpoint's own tick: they precede the decision of that
//     tick, which a version-5 world at the tick has already applied, so
//     reading them as version 5 would apply them one decision late.
//     Upgrade applies them to the rows, and drops the journal entries
//     stamped at a nonzero base, which the base snapshot holds applied;
//     versions 2 and 3 stamp pending entries the same way. An upgraded
//     stream at base 0 keeps the journal entries its writer stamped 0:
//     they preceded the first decision, which no version-5 command can
//     (SubmitStamped takes stamps from 1), so replay from genesis does
//     not cover an upgraded stream — those entries are a record only.
//     Replicas are unaffected: they bootstrap from a checkpoint and
//     follow the entries stamped after it;
//   - version 3 carries two more stats counters, MaintainTicks and
//     DirtyRows, between Deaths and CommandsApplied. They count how the
//     indexes were kept, which moves with Workers and maintenance, so one
//     world could checkpoint to different bytes;
//   - version 2 is version 3 without the base field (base 0);
//   - version 1 is the header with the first seven counters of version 3,
//     then the schema and rows sections: no script, constants or inputs.
//     Upgrading it takes the program it ran.
//
// The version number is bumped on ANY layout change and never reused.
// See ROADMAP.md for the compatibility policy.
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

// CheckpointVersion is the format version this build writes and the only
// one Open reads; Upgrade rewrites versions 1 through 4 as this one.
const CheckpointVersion = 5

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
// in a checksum, so Open detects truncation and corruption. It embeds the
// script, the journal compaction base, and any pending or journaled
// inputs, so Open can reopen it with no other artifact. Commands still
// queued in the sharded admission buffers are stamped and drained into
// the stream first — an acknowledged Submit is always part of the
// checkpoint.
func (e *Engine) Checkpoint(w io.Writer) error {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	e.drainAdmission()
	var flags uint8
	if e.opts.DisableAreaDefer {
		flags |= 1
	}
	if e.opts.DisableOptimizer {
		flags |= 2
	}
	return writeCheckpoint(w, &checkpointPayload{
		seed:      e.opts.Seed,
		tick:      e.tick,
		mode:      e.opts.Mode,
		flags:     flags,
		side:      e.opts.Side,
		moveSpeed: e.opts.MoveSpeed,
		cats:      e.opts.Categoricals,
		counters: [7]int64{
			int64(e.Stats.Ticks), int64(e.Stats.EffectsApplied), int64(e.Stats.Moves),
			int64(e.Stats.MovesBlocked), int64(e.Stats.Deaths),
			int64(e.Stats.CommandsApplied), int64(e.Stats.CommandsRejected),
		},
		script:  e.source,
		consts:  e.prog.Consts,
		schema:  e.prog.Schema,
		env:     e.env,
		base:    e.journalBase,
		pending: e.pending,
		journal: e.journal,
		seqs:    e.seqs,
	})
}

// writeCheckpoint encodes p in the current layout. Checkpoint and Upgrade
// both write through it, so an upgraded stream is byte for byte the one
// this build writes for the same world.
func writeCheckpoint(w io.Writer, p *checkpointPayload) error {
	cw := table.NewWriter(w)
	cw.Bytes([]byte(checkpointMagic))
	cw.U32(CheckpointVersion)
	cw.U64(p.seed)
	cw.I64(p.tick)
	cw.U8(uint8(p.mode))
	cw.U8(p.flags)
	cw.F64(p.side)
	cw.F64(p.moveSpeed)
	cw.U32(uint32(len(p.cats)))
	for _, c := range p.cats {
		cw.Str(c)
	}
	for _, v := range p.counters {
		cw.I64(v)
	}
	cw.Str(p.script)
	table.WriteConsts(cw, p.consts)
	table.WriteSchema(cw, p.schema)
	table.WriteRows(cw, p.env)
	cw.I64(p.base)
	writeCommands(cw, p.pending)
	writeCommands(cw, p.journal)
	writeSeqs(cw, p.seqs)
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

// checkpointPayload is a checkpoint stream's content in the current
// layout: what Checkpoint encodes, and what decodeCheckpoint returns for
// a verified stream of any version.
type checkpointPayload struct {
	version   uint32 // the decoded stream's version; the encoder writes CheckpointVersion
	seed      uint64
	tick      int64
	mode      Mode
	flags     uint8
	side      float64
	moveSpeed float64
	cats      []string
	counters  [7]int64 // the stats section, in layout order
	script    string
	consts    map[string]float64
	schema    *table.Schema
	env       *table.Table
	base      int64
	pending   []StampedCommand
	journal   []StampedCommand
	seqs      map[string]uint64
}

// decodeCheckpoint reads and validates a checkpoint stream whose version
// lies in [oldest, CheckpointVersion], reading the version tag before
// anything else. An older stream decodes into the current layout: the
// maintenance counters of versions 1–3 are dropped, version 1 decodes
// with no script, constants, inputs or command counters, and versions 1
// and 2 with journal base 0. Nothing engine-shaped is built until the
// trailing checksum has verified the bytes.
func decodeCheckpoint(r io.Reader, oldest uint32) (*checkpointPayload, error) {
	cr := table.NewReader(r)
	var magic [8]byte
	cr.Bytes(magic[:])
	if cr.Err() == nil && string(magic[:]) != checkpointMagic {
		return nil, fmt.Errorf("engine: open: not an SGL checkpoint (bad magic)")
	}
	p := &checkpointPayload{}
	p.version = cr.U32()
	if cr.Err() == nil {
		switch {
		case p.version < 1 || p.version > CheckpointVersion:
			return nil, fmt.Errorf("engine: open: unsupported checkpoint version %d (this build writes %d)", p.version, CheckpointVersion)
		case p.version < oldest:
			return nil, fmt.Errorf("engine: open: checkpoint version %d is an older layout; rewrite it as version %d with `sglc -upgrade`", p.version, CheckpointVersion)
		}
	}
	p.seed = cr.U64()
	p.tick = cr.I64()
	p.mode = Mode(cr.U8())
	p.flags = cr.U8()
	p.side = cr.F64()
	p.moveSpeed = cr.F64()
	ncat := cr.U32()
	if cr.Err() == nil && ncat > maxCategoricals {
		return nil, fmt.Errorf("engine: open: %d categorical attributes exceeds limit", ncat)
	}
	for i := uint32(0); i < ncat && cr.Err() == nil; i++ {
		p.cats = append(p.cats, cr.Str(table.MaxNameLen))
	}
	if p.version >= 4 {
		for i := range p.counters {
			p.counters[i] = cr.I64()
		}
	} else {
		for i := 0; i < 5; i++ { // Ticks … Deaths
			p.counters[i] = cr.I64()
		}
		cr.I64() // MaintainTicks
		cr.I64() // DirtyRows
		if p.version > 1 {
			p.counters[5], p.counters[6] = cr.I64(), cr.I64()
		}
	}
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	if p.tick < 0 || p.mode > Indexed || p.flags > 3 {
		return nil, fmt.Errorf("engine: open: malformed header (tick %d, mode %d, flags %d)", p.tick, p.mode, p.flags)
	}
	// The world geometry must be usable: resurrection draws positions in
	// [0, Side), and every square of the world must have int32
	// coordinates (see maxSide).
	if !(p.side >= 1 && p.side <= maxSide) || !(p.moveSpeed >= 0) || math.IsInf(p.moveSpeed, 0) {
		return nil, fmt.Errorf("engine: open: malformed world geometry (side %v, movespeed %v)", p.side, p.moveSpeed)
	}

	var err error
	if p.version >= 2 {
		p.script = cr.Str(maxScriptBytes)
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		if p.consts, err = table.ReadConsts(cr); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
	}
	if p.schema, err = table.ReadSchema(cr); err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	if p.env, err = table.ReadRows(cr, p.schema); err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	if p.version >= 3 {
		p.base = cr.I64()
		if err := cr.Err(); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		if p.base < 0 || p.base > p.tick {
			return nil, fmt.Errorf("engine: open: journal base %d outside [0, tick %d]", p.base, p.tick)
		}
	}
	if p.version >= 2 {
		if p.pending, err = readCommands(cr, "pending-input"); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		if len(p.pending) > MaxPendingCommands {
			return nil, fmt.Errorf("engine: open: %d pending commands exceeds limit %d", len(p.pending), MaxPendingCommands)
		}
		// Each layout stamps its pending window one way: version 5 with
		// the next tick, the older ones with the checkpoint's own.
		want := p.tick
		if p.version >= 5 {
			want++
		}
		for i, sc := range p.pending {
			if sc.Tick != want {
				return nil, fmt.Errorf("engine: open: pending entry %d stamped tick %d, want %d", i, sc.Tick, want)
			}
		}
		if p.journal, err = readCommands(cr, "journal"); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
		// A compacted stream's journal is a tail: every surviving entry is
		// stamped after the base (before version 5, at or after it). An
		// entry the base folded contradicts the base field — one of them
		// is corrupt. Base 0 folded nothing: a stream upgraded from an
		// older layout may keep entries stamped 0 there.
		for i, sc := range p.journal {
			if sc.Tick < p.base || (p.version >= 5 && p.base > 0 && sc.Tick == p.base) {
				return nil, fmt.Errorf("engine: open: journal entry %d stamped tick %d is folded into journal base %d", i, sc.Tick, p.base)
			}
		}
		if p.seqs, err = readSeqs(cr); err != nil {
			return nil, fmt.Errorf("engine: open: %w", err)
		}
	}
	sum := cr.Sum() // checksum of everything consumed so far
	stored := cr.U64()
	if err := cr.Err(); err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("engine: open: checksum mismatch (stored %016x, computed %016x): corrupted checkpoint", stored, sum)
	}
	return p, nil
}

// Open reopens a checkpoint written by Checkpoint as a ready-to-serve
// Session positioned exactly where the writer stopped: same environment,
// tick counter, seed and semantic options, with the cumulative run
// counters, the input journal, pending commands and retuned constants
// carried over. The program is rebuilt from the embedded script and
// constant table — the whole world from one stream, nothing to pair it
// with. Continuing the session produces environments byte-identical to
// the run that was never interrupted.
//
// Only version-5 streams open; an older one fails with an error naming
// sglc -upgrade, which rewrites it (see Upgrade). Of tune, only the
// determinism-neutral execution knobs are consulted — Workers and
// CompactJournal — so a world checkpointed on one machine can resume with
// a different parallelism or compaction strategy without changing a
// single output bit. Everything else comes
// from the checkpoint itself.
//
// Measurement state that describes how this engine keeps its indexes
// starts fresh: RunStats.MaintainTicks, DirtyRows, IndexStats and
// EffectsByWorker count work done by *this* engine's evaluator, worker
// layout and maintenance history, so they restart at zero.
func Open(r io.Reader, g Game, tune Options) (*Session, error) {
	p, err := decodeCheckpoint(r, CheckpointVersion)
	if err != nil {
		return nil, err
	}
	e, err := engineFor(p, g, tune)
	if err != nil {
		return nil, err
	}
	// Readers start where the writer stopped: the first published view
	// carries the checkpoint's tick and counters.
	e.publishView()
	return NewSession(e), nil
}

// engineFor builds the engine a decoded payload describes, unpublished:
// the program from the embedded script and constant table, the rows,
// tick, counters and inputs from the payload, and of tune only the
// execution knobs.
func engineFor(p *checkpointPayload, g Game, tune Options) (*Engine, error) {
	script, err := parser.Parse(p.script)
	if err != nil {
		return nil, fmt.Errorf("engine: open: embedded script: %w", err)
	}
	prog, err := sem.Check(script, p.schema, p.consts)
	if err != nil {
		return nil, fmt.Errorf("engine: open: embedded script: %w", err)
	}
	// The environment shares the program's schema object (pointer
	// identity matters to plan operators).
	p.env.Schema = prog.Schema
	e, err := build(prog, g, p.env, Options{
		Mode:             p.mode,
		Categoricals:     p.cats,
		Seed:             p.seed,
		Side:             p.side,
		MoveSpeed:        p.moveSpeed,
		DisableAreaDefer: p.flags&1 != 0,
		DisableOptimizer: p.flags&2 != 0,
		Workers:          tune.Workers,
		CompactJournal:   tune.CompactJournal,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: open: %w", err)
	}
	e.tick = p.tick
	e.Stats.Ticks = int(p.counters[0])
	e.Stats.EffectsApplied = int(p.counters[1])
	e.Stats.Moves = int(p.counters[2])
	e.Stats.MovesBlocked = int(p.counters[3])
	e.Stats.Deaths = int(p.counters[4])
	e.Stats.CommandsApplied = int(p.counters[5])
	e.Stats.CommandsRejected = int(p.counters[6])
	// The payload is authoritative for everything interactive: the
	// constant table with any OpTune history folded in, the journal base,
	// and the input state. The script source is the canonical print of the
	// embedded text (the ast printer is a parse/print fixed point), which
	// keeps open → checkpoint a byte fixed point.
	e.prog.AdoptConsts(p.consts)
	e.rebuildConstNames()
	e.journal = p.journal
	e.journalBase = p.base
	e.seqs = p.seqs
	// Pending commands apply at the next commit; re-validate them against
	// the rebuilt engine so a hostile-but-checksummed stream cannot
	// smuggle a row that would panic the apply path.
	for i := range p.pending {
		if err := e.validateCommand(&p.pending[i].Cmd); err != nil {
			return nil, fmt.Errorf("engine: open: pending command %d: %w", i, err)
		}
	}
	e.pending = p.pending
	e.inflight.Store(int64(len(p.pending)))
	return e, nil
}

// Upgrade rewrites a checkpoint stream of any version this build knows as
// a version-5 stream, the one layout Open reads; it is the only reader of
// versions 1 through 4. The world, inputs and remaining counters carry
// over unchanged, except that a pending batch of versions 2 through 4,
// stamped for the decision of the stream's own tick, is applied to the
// rows exactly as that decision's tick would have applied it first, and
// the journal entries stamped at a nonzero base are dropped, as the base
// snapshot they were pending in now holds them applied. The maintenance
// counters of the old layouts are dropped, as reopening restarts them at
// zero. A version-1 stream predates the embedded script and needs prog,
// the program it ran (its schema must match the stream's); later
// versions ignore prog, which may be nil. Nothing is written unless the
// whole input decodes and verifies.
func Upgrade(r io.Reader, w io.Writer, prog *sem.Program) error {
	p, err := decodeCheckpoint(r, 1)
	if err != nil {
		return err
	}
	if p.version == 1 {
		if prog == nil {
			return fmt.Errorf("engine: upgrade: a version-1 checkpoint has no embedded script; supply the program it ran")
		}
		if !p.schema.Equal(prog.Schema) {
			return fmt.Errorf("engine: upgrade: checkpoint schema %v does not match program schema %v", p.schema, prog.Schema)
		}
		p.script, p.consts = prog.Script.String(), prog.Consts
	}
	if p.version < 5 {
		if err := applyLegacyPending(p); err != nil {
			return err
		}
	}
	return writeCheckpoint(w, p)
}

// applyLegacyPending moves an older layout's inputs to version 5's
// boundary: its pending batch, which precedes the decision of the
// stream's tick, is applied through the engine's own apply path — the
// same rejections, counters and retunes — and the journal entries a
// nonzero base folded are dropped.
func applyLegacyPending(p *checkpointPayload) error {
	if p.base > 0 {
		kept := p.journal[:0]
		for _, sc := range p.journal {
			if sc.Tick > p.base {
				kept = append(kept, sc)
			}
		}
		p.journal = kept
	}
	if len(p.pending) == 0 {
		return nil
	}
	e, err := engineFor(p, nil, Options{Workers: 1})
	if err != nil {
		return fmt.Errorf("engine: upgrade: %w", err)
	}
	e.applyCommands()
	p.env, p.consts, p.pending = e.env, e.prog.Consts, nil
	p.counters[5], p.counters[6] = int64(e.Stats.CommandsApplied), int64(e.Stats.CommandsRejected)
	return nil
}
