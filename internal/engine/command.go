// External command injection: the write half of the interactive session
// API. A closed simulation only ever mutates itself; a *game* is driven
// by players, whose actions arrive asynchronously from many connections.
// The command pipeline turns those arrivals back into something the
// deterministic tick machinery can digest:
//
//   - SubmitSharded (admission.go) validates a typed command against the
//     schema and world geometry and queues it on its origin's admission
//     queue; nothing mutates yet. The next drain stamps it (tick, origin,
//     per-origin sequence) with the tick after the last committed one
//     (stampTick) and appends it to the per-tick input buffer AND to the
//     run's input journal.
//   - The next Tick applies the buffer at its commit — after its own
//     decision, movement and resurrection, before the delta capture and
//     the read view it publishes — in the canonical order (tick, origin,
//     sequence). The next decision, its key index, effect query and
//     index builds, then observes the post-command world. Two clients
//     racing their submissions therefore produce the same world no
//     matter how the network interleaved them: the canonical order
//     depends only on WHAT was submitted in the tick window, not on when
//     within it.
//   - Commands that fail their apply-time rules (spawn onto an occupied
//     square, despawn of a dead key) are rejected deterministically and
//     counted, never partially applied.
//
// Exactness contract #5 follows: the journal is a complete record of every
// accepted input with its stamp, so re-submitting it against a fresh
// engine of the same (program, initial environment, seed) reproduces the
// live interactive run byte-for-byte, at any Workers setting —
// TestReplayMatchesLive proves it, and checkpoint format v2
// carries the pending buffer and journal so the contract survives
// checkpoint/restore mid-stream.
//
// Interaction with incremental maintenance: a command mutates rows before
// the tick's delta is captured, so the diff against the previous read
// view names each edited row with exactly the columns that changed — a
// morale edit leaves every index that does not read morale untouched. A
// population change leaves the diff no row-for-row baseline, and a
// constant tune changes index build inputs; either way the next tick's
// provider rebuilds (see incremental.go).
package engine

import (
	"fmt"

	"github.com/epicscale/sgl/internal/index/ordmap"
	"github.com/epicscale/sgl/internal/table"
)

// CommandOp enumerates the typed world mutations a session accepts.
type CommandOp uint8

// Command operations.
const (
	// OpSpawn inserts a new unit row (Command.Row, full schema width).
	OpSpawn CommandOp = iota
	// OpDespawn removes the unit with Command.Key.
	OpDespawn
	// OpSet overwrites one state column (Command.Col) of the unit with
	// Command.Key to Command.Val.
	OpSet
	// OpTune changes the named game constant (Command.Col) the engine's
	// scripts read to Command.Val, from the decision its stamp names on.
	OpTune
)

// String returns the wire name of the operation.
func (op CommandOp) String() string {
	switch op {
	case OpSpawn:
		return "spawn"
	case OpDespawn:
		return "despawn"
	case OpSet:
		return "set"
	case OpTune:
		return "tune"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// MarshalJSON encodes the operation as its wire name.
func (op CommandOp) MarshalJSON() ([]byte, error) {
	return []byte(`"` + op.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name back into the operation.
func (op *CommandOp) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"spawn"`:
		*op = OpSpawn
	case `"despawn"`:
		*op = OpDespawn
	case `"set"`:
		*op = OpSet
	case `"tune"`:
		*op = OpTune
	default:
		return fmt.Errorf("engine: unknown command op %s", b)
	}
	return nil
}

// Command is one externally injected world mutation. Which fields matter
// depends on Op: Spawn reads Row (and normalizes Key from its key
// column), Despawn reads Key, Set reads Key/Col/Val, Tune reads Col (the
// constant's name) and Val.
type Command struct {
	// Op selects the mutation.
	Op CommandOp `json:"op"`
	// Key is the target unit key (despawn, set; normalized for spawn).
	Key int64 `json:"key,omitempty"`
	// Col names the schema column (set) or game constant (tune).
	Col string `json:"col,omitempty"`
	// Val is the value written (set, tune).
	Val float64 `json:"val,omitempty"`
	// Row is the full environment row a spawn inserts.
	Row []float64 `json:"row,omitempty"`
}

// StampedCommand is a command plus the stamp its drain assigned: the decision
// it precedes, the submitting origin, and the origin's sequence number.
// The triple (Tick, Origin, Seq) is the canonical application order and
// the journal's replay key.
type StampedCommand struct {
	// Tick is the decision the command precedes: the engine tick count at
	// admission plus one. The Tick call that advances the world to Tick
	// applies it at its commit, so the read view labelled Tick is the
	// first to show it.
	Tick int64 `json:"tick"`
	// Origin identifies the submitter (a player, a connection, a tool).
	Origin string `json:"origin"`
	// Seq is the origin's own submission counter, assigned at the drain.
	Seq uint64 `json:"seq"`
	// Cmd is the command itself.
	Cmd Command `json:"cmd"`
}

// Input-pipeline limits.
const (
	// MaxPendingCommands bounds the per-tick input window — queued
	// admissions plus the stamped pending buffer; SubmitSharded and
	// SubmitStamped fail once it is full (backpressure, and a decode
	// bound for restore). Sized for the sharded admission path's target
	// of ~10⁵ commands per tick from many concurrent actors.
	MaxPendingCommands = 1 << 17
	// MaxOriginLen bounds the origin identifier a command carries.
	MaxOriginLen = 64
)

// insertCanonical appends sc and bubbles it into canonical (tick,
// origin, sequence) position. Ticks only grow, so the walk never leaves
// the current tick's tail segment. Keeping BOTH the buffer and the
// journal canonical at all times (not just sorting at the tick boundary)
// is what makes checkpoints — which embed them — byte-independent of
// arrival interleaving, not merely semantically independent.
func insertCanonical(list []StampedCommand, sc StampedCommand) []StampedCommand {
	list = append(list, sc)
	for i := len(list) - 1; i > 0; i-- {
		p := list[i-1]
		if p.Tick != sc.Tick || p.Origin < sc.Origin || (p.Origin == sc.Origin && p.Seq < sc.Seq) {
			break
		}
		list[i], list[i-1] = list[i-1], list[i]
	}
	return list
}

// SubmitStamped enqueues one journal entry with its original stamp — the
// replay path, deliberately bypassing the sharded admission queues: a
// journal entry already carries its canonical (tick, origin, seq) stamp,
// and routing it through a queue that re-stamps at the drain would
// destroy exactly the history being replayed. The entry must carry the
// stamp a command admitted now would get, stampTick (drive the engine
// tick by tick, submitting the slice stamped one past its tick count
// before each Tick). The origin's sequence counter advances past the
// entry's, so a replayed-then-live session keeps assigning fresh
// sequence numbers.
func (e *Engine) SubmitStamped(sc StampedCommand) error {
	if len(sc.Origin) > MaxOriginLen {
		return fmt.Errorf("engine: origin longer than %d bytes", MaxOriginLen)
	}
	if want := e.stampTick(); sc.Tick != want {
		return fmt.Errorf("engine: replayed command stamped for tick %d submitted at tick %d (want stamp %d)", sc.Tick, e.tick, want)
	}
	if err := e.validateCommand(&sc.Cmd); err != nil {
		return fmt.Errorf("engine: replayed command: %w", err)
	}
	if err := e.reserve(1); err != nil {
		return err
	}
	if sc.Cmd.Row != nil {
		sc.Cmd.Row = append([]float64(nil), sc.Cmd.Row...)
	}
	if e.seqs == nil {
		e.seqs = map[string]uint64{}
	}
	if next := sc.Seq + 1; next > e.seqs[sc.Origin] {
		e.seqs[sc.Origin] = next
	}
	e.pending = insertCanonical(e.pending, sc)
	e.journal = insertCanonical(e.journal, sc)
	return nil
}

// Journal returns a copy of the run's input journal: every accepted
// command with its (tick, origin, sequence) stamp, in acceptance order,
// from the compaction base on (see JournalBase; zero base means complete
// from genesis). Replaying it against a fresh engine of the same
// (program, initial environment, seed) — or, when compacted, against the
// base checkpoint — reproduces this run byte-identically (contract #5).
// Commands admitted through the sharded queues enter the journal at the
// next drain (a tick's commit or a checkpoint), not at admission.
func (e *Engine) Journal() []StampedCommand {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	return append([]StampedCommand(nil), e.journal...)
}

// Pending returns a copy of the stamped commands waiting for the next
// tick's commit.
func (e *Engine) Pending() []StampedCommand {
	e.inmu.Lock()
	defer e.inmu.Unlock()
	return append([]StampedCommand(nil), e.pending...)
}

// validateCommand checks the world-independent rules. It normalizes a
// spawn's Key field from the row's key column.
func (e *Engine) validateCommand(c *Command) error {
	switch c.Op {
	case OpSpawn:
		if len(c.Row) != e.prog.Schema.NumAttrs() {
			return fmt.Errorf("spawn row width %d != schema width %d", len(c.Row), e.prog.Schema.NumAttrs())
		}
		for i, v := range c.Row {
			if !finite(v) {
				return fmt.Errorf("spawn row column %s is not finite", e.prog.Schema.Attr(i).Name)
			}
		}
		key := c.Row[e.prog.Schema.KeyCol()]
		if err := checkKey(key); err != nil {
			return fmt.Errorf("spawn %w", err)
		}
		c.Key = int64(key)
		if err := e.validatePos(c.Row[e.posX], c.Row[e.posY]); err != nil {
			return err
		}
	case OpDespawn:
		if err := checkKey(c.Key); err != nil {
			return fmt.Errorf("despawn %w", err)
		}
	case OpSet:
		if err := checkKey(c.Key); err != nil {
			return fmt.Errorf("set %w", err)
		}
		col, ok := e.prog.Schema.Col(c.Col)
		if !ok {
			return fmt.Errorf("set: no column %q in the schema", c.Col)
		}
		if col == e.prog.Schema.KeyCol() {
			return fmt.Errorf("set: the key column is immutable")
		}
		if e.prog.Schema.Attr(col).Kind != table.Const {
			return fmt.Errorf("set: column %q is an effect column (kind %v), not unit state", c.Col, e.prog.Schema.Attr(col).Kind)
		}
		if !finite(c.Val) {
			return fmt.Errorf("set %s: value must be finite", c.Col)
		}
		if (col == e.posX || col == e.posY) && !inWorld(c.Val, e.opts.Side) {
			return fmt.Errorf("set %s = %v is outside the world [0, %v)", c.Col, c.Val, e.opts.Side)
		}
	case OpTune:
		// Checked against the immutable name set, not the live constant
		// table: OpTune changes values, never names, and the sharded
		// admission path validates lock-free while ticks retune.
		if _, ok := e.constNames[c.Col]; !ok {
			return fmt.Errorf("tune: no game constant %q", c.Col)
		}
		if !finite(c.Val) {
			return fmt.Errorf("tune %s: value must be finite", c.Col)
		}
	default:
		return fmt.Errorf("unknown command op %d", c.Op)
	}
	return nil
}

func (e *Engine) validatePos(x, y float64) error {
	if !inWorld(x, e.opts.Side) || !inWorld(y, e.opts.Side) {
		return fmt.Errorf("position (%v, %v) is outside the world [0, %v)²", x, y, e.opts.Side)
	}
	return nil
}

// applyCommands stamps the commands admitted up to a tick's commit (see
// admission.go) and applies the input buffer in canonical (tick, origin,
// sequence) order, the order insertCanonical keeps it in. It runs after
// the tick's resurrection and before its delta capture, so the view the
// tick publishes and every later decision observe the post-command world.
func (e *Engine) applyCommands() {
	e.inmu.Lock()
	e.drainAdmission()
	e.inmu.Unlock()
	if len(e.pending) == 0 {
		return
	}
	// The occupancy record mirrors the live environment through the
	// batch, so each command observes its predecessors' placements — the
	// same one-unit-per-square rule movement and resurrection enforce.
	e.occ.sync()
	// The first spawn or despawn of the batch takes a private copy of the
	// key table: the published view reads the one it holds.
	ownKeys := false
	editKeys := func() *ordmap.Map {
		if !ownKeys {
			e.keys, ownKeys = e.keyIndex().Clone(), true
		}
		return e.keys
	}
	for _, sc := range e.pending {
		c := sc.Cmd
		switch c.Op {
		case OpSpawn:
			if e.rowIndexByKey(c.Key) >= 0 {
				e.Stats.CommandsRejected++ // duplicate key
				continue
			}
			n := e.env.Len()
			if !e.occ.place(n, c.Row[e.posX], c.Row[e.posY]) {
				e.Stats.CommandsRejected++ // square occupied
				continue
			}
			e.env.Append(append([]float64(nil), c.Row...))
			editKeys().Put(c.Key, int32(n))
			e.popChanged = true
		case OpDespawn:
			i := e.rowIndexByKey(c.Key)
			if i < 0 {
				e.Stats.CommandsRejected++
				continue
			}
			e.occ.drop(i)
			keys := editKeys()
			keys.Delete(c.Key)
			keys.CloseGap(int32(i))
			e.env.Rows = append(e.env.Rows[:i], e.env.Rows[i+1:]...)
			e.popChanged = true
		case OpSet:
			i := e.rowIndexByKey(c.Key)
			if i < 0 {
				e.Stats.CommandsRejected++
				continue
			}
			row := e.env.Rows[i]
			col, _ := e.prog.Schema.Col(c.Col)
			if col == e.posX || col == e.posY {
				nx, ny := row[e.posX], row[e.posY]
				if col == e.posX {
					nx = c.Val
				} else {
					ny = c.Val
				}
				if !e.occ.move(i, nx, ny) {
					e.Stats.CommandsRejected++ // target square occupied
					continue
				}
			}
			row[col] = c.Val
		case OpTune:
			e.prog.SetConst(c.Col, c.Val)
			e.tuned = true
		}
		e.Stats.CommandsApplied++
	}
	// Release the drained buffer's share of the admission budget (see
	// Engine.reserve): queued sharded commands kept their reservation
	// through the stamp, so the window bound held end to end.
	e.inflight.Add(-int64(len(e.pending)))
	e.pending = e.pending[:0]
}

// rowIndexByKey resolves a key, compared as the int64 unit identity, to
// its row index through the engine's key table, which spawns and
// despawns earlier in the batch keep current; -1 when no unit has it.
func (e *Engine) rowIndexByKey(key int64) int {
	if i, ok := e.keyIndex().Get(key); ok {
		return int(i)
	}
	return -1
}
