package engine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// restoreCfg is one execution configuration a checkpoint is resumed
// under. The exactness contract says the configuration must not matter.
type restoreCfg struct {
	workers     int
	incremental bool
}

var restoreCfgs = []restoreCfg{
	{workers: 1}, {workers: 4},
	{workers: 1, incremental: true}, {workers: 4, incremental: true},
}

// TestCheckpointResumeBitIdentical is the acceptance harness for the
// checkpoint exactness contract: for every zoo program and the battle
// simulation, checkpoint at tick T ∈ {1, 7, mid-run}, restore, run to
// tick N — the environment must be byte-identical to the uninterrupted
// run, at Workers ∈ {1, 4} × Incremental ∈ {off, on}, and regardless of
// which configuration wrote the checkpoint.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const units, ticks = 64, 20
	mk := func(progName, src string, battle bool, n int) {
		t.Run(progName, func(t *testing.T) {
			prog := battleProg(t)
			if !battle {
				prog = compileZoo(t, src)
			}
			oracle := newEngine(t, prog, n, Indexed, 7, func(o *Options) { o.Workers = 1 })
			if err := oracle.Run(ticks); err != nil {
				t.Fatal(err)
			}
			for _, at := range []int{1, 7, ticks / 2} {
				// The writer runs under the hostile configuration (sharded,
				// always-maintain); the format must not leak any of it.
				writer := newEngine(t, prog, n, Indexed, 7, func(o *Options) {
					o.Workers = 4
					o.Incremental = true
					o.IncrementalThreshold = 1
				})
				if err := writer.Run(at); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := writer.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				for _, cfg := range restoreCfgs {
					restored, err := Restore(bytes.NewReader(buf.Bytes()), prog, game.NewMechanics(), Options{
						Workers:              cfg.workers,
						Incremental:          cfg.incremental,
						IncrementalThreshold: 1,
					})
					if err != nil {
						t.Fatalf("restore at tick %d: %v", at, err)
					}
					if restored.TickCount() != int64(at) {
						t.Fatalf("restored tick counter %d, want %d", restored.TickCount(), at)
					}
					if err := restored.Run(ticks - at); err != nil {
						t.Fatal(err)
					}
					if !identicalTables(oracle.Env(), restored.Env()) {
						t.Fatalf("resume from tick %d at w=%d inc=%v diverged from the uninterrupted run",
							at, cfg.workers, cfg.incremental)
					}
					if restored.Stats.Deaths != oracle.Stats.Deaths ||
						restored.Stats.Moves != oracle.Stats.Moves ||
						restored.Stats.MovesBlocked != oracle.Stats.MovesBlocked ||
						restored.Stats.Ticks != oracle.Stats.Ticks {
						t.Fatalf("resumed counters diverged: deaths %d/%d moves %d/%d blocked %d/%d ticks %d/%d",
							restored.Stats.Deaths, oracle.Stats.Deaths,
							restored.Stats.Moves, oracle.Stats.Moves,
							restored.Stats.MovesBlocked, oracle.Stats.MovesBlocked,
							restored.Stats.Ticks, oracle.Stats.Ticks)
					}
				}
			}
		})
	}
	for _, zp := range exec.Zoo {
		mk(zp.Name, zp.Src, false, units)
	}
	mk("battle-sim", "", true, 90)
}

// A checkpoint is a pure function of the resumable state: writing twice
// yields identical bytes, and write → restore → write is a fixed point.
func TestCheckpointDeterministic(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 80, Indexed, 3, nil)
	if err := e.Run(9); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := e.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two checkpoints of the same state differ")
	}
	restored, err := Restore(bytes.NewReader(a.Bytes()), prog, game.NewMechanics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := restored.Checkpoint(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("restore → checkpoint is not a fixed point")
	}
}

// Restoring a naive-mode checkpoint preserves the mode (naive and
// indexed runs differ in floating-point association, so the mode is part
// of the determinism fingerprint).
func TestCheckpointPreservesMode(t *testing.T) {
	prog := battleProg(t)
	oracle := newEngine(t, prog, 60, Naive, 5, func(o *Options) { o.Workers = 1 })
	writer := newEngine(t, prog, 60, Naive, 5, func(o *Options) { o.Workers = 1 })
	if err := oracle.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := writer.Run(4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writer.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf, prog, game.NewMechanics(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.opts.Mode != Naive {
		t.Fatal("mode not restored")
	}
	if err := restored.Run(6); err != nil {
		t.Fatal(err)
	}
	if !identicalTables(oracle.Env(), restored.Env()) {
		t.Fatal("naive-mode resume diverged")
	}
}

func mustParse(t testing.TB, src string) *ast.Script {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return script
}

func checkpointBytes(t testing.TB, prog *sem.Program) []byte {
	t.Helper()
	e := newEngine(t, prog, 48, Indexed, 11, nil)
	if err := e.Run(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Corrupted and truncated inputs must fail with an error describing the
// problem, never panic or restore silently wrong state.
func TestRestoreErrorPaths(t *testing.T) {
	prog := battleProg(t)
	valid := checkpointBytes(t, prog)
	mech := game.NewMechanics()

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := []struct {
		name  string
		input []byte
		want  string
	}{
		{"empty", nil, "truncated"},
		{"bad-magic", corrupt(func(b []byte) { b[0] = 'X' }), "magic"},
		{"bad-version", corrupt(func(b []byte) { b[8] = 99 }), "version"},
		{"truncated-header", valid[:20], "truncated"},
		{"truncated-rows", valid[:len(valid)-40], "truncated"},
		{"missing-checksum", valid[:len(valid)-8], "truncated"},
		{"flipped-row-byte", corrupt(func(b []byte) { b[len(b)-100] ^= 0x40 }), "checksum"},
		{"flipped-seed-byte", corrupt(func(b []byte) { b[13] ^= 0x01 }), "checksum"},
		{"garbage", bytes.Repeat([]byte{0xAB}, 64), "magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Restore(bytes.NewReader(tc.input), prog, mech, Options{})
			if err == nil {
				t.Fatal("corrupted checkpoint restored without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// A checkpoint must only restore against the program it was written
// under: schema mismatch is detected before any engine is built.
func TestRestoreSchemaMismatch(t *testing.T) {
	valid := checkpointBytes(t, battleProg(t))
	otherSchema := table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "damage", Kind: table.Sum},
	)
	otherProg, err := sem.Check(mustParse(t, `
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, 1) }`), otherSchema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(valid), otherProg, game.NewMechanics(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not detected: %v", err)
	}
}

// Checkpoint must surface writer errors (full disk, closed pipe).
func TestCheckpointWriteError(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 40, Indexed, 2, nil)
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(&failAfter{n: 10}); err == nil {
		t.Fatal("write error swallowed")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	return len(p), nil
}

// FuzzRestore: arbitrary bytes must never panic the restore path —
// neither Restore (prog-supplied, v1+v2) nor the self-contained Open
// (v2, which additionally parses the embedded script). Seeds cover a
// valid v2 checkpoint with live input sections (journal, pending
// commands, sequence counters), interesting prefixes including one that
// truncates inside the input sections, corruption inside the embedded
// script region, and a synthesized v1 stream for the cross-version
// path.
func FuzzRestore(f *testing.F) {
	prog := battleProg(f)
	valid := checkpointBytes(f, prog)

	// A current-version checkpoint whose script/consts/inputs sections
	// are all nonempty: applied commands, a journal, and a pending entry.
	interactive := func() []byte {
		e := newEngine(f, prog, 48, Indexed, 11, nil)
		if err := e.Submit("fuzz", Command{Op: OpSet, Key: 1, Col: "health", Val: 9}); err != nil {
			f.Fatal(err)
		}
		if err := e.Run(2); err != nil {
			f.Fatal(err)
		}
		if err := e.Submit("fuzz", Command{Op: OpDespawn, Key: 2}); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()

	// v3 corpora: compacted streams (nonzero journal base), with and
	// without a pending tail, plus adversarial variants — a truncated
	// compacted stream and a checksum-valid stream whose base field
	// contradicts its own journal. A genuine v2 stream from the
	// version-parameterized writer seeds the back-compat path.
	compacted, compactedPending, badBase, v2 := func() (a, b, c, d []byte) {
		e := newEngine(f, prog, 64, Indexed, 17, nil)
		if err := e.Submit("fuzz", Command{Op: OpSet, Key: 3, Col: "morale", Val: 4}); err != nil {
			f.Fatal(err)
		}
		if err := e.Run(3); err != nil {
			f.Fatal(err)
		}
		var v2buf bytes.Buffer
		if err := e.checkpointVersioned(&v2buf, CheckpointVersionV2); err != nil {
			f.Fatal(err)
		}
		e.Compact()
		var cbuf bytes.Buffer
		if err := e.Checkpoint(&cbuf); err != nil {
			f.Fatal(err)
		}
		if err := e.Submit("fuzz", Command{Op: OpDespawn, Key: 5}); err != nil {
			f.Fatal(err)
		}
		var pbuf bytes.Buffer
		if err := e.Checkpoint(&pbuf); err != nil {
			f.Fatal(err)
		}
		e.journalBase = e.tick + 5 // self-contradictory, but checksummed
		var bbuf bytes.Buffer
		if err := e.Checkpoint(&bbuf); err != nil {
			f.Fatal(err)
		}
		return cbuf.Bytes(), pbuf.Bytes(), bbuf.Bytes(), v2buf.Bytes()
	}()

	// A checksum-valid stream whose keys collide as unit identities: row
	// 1's key 0.5 is row 0's key 0 under int64 (the key rule rejects it).
	collidingKeys := func() []byte {
		e := newEngine(f, prog, 32, Indexed, 13, nil)
		e.env.Rows[1][prog.Schema.KeyCol()] = 0.5
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()

	f.Add(valid)
	f.Add(interactive)
	f.Add(compacted)
	f.Add(compactedPending)
	f.Add(compactedPending[:len(compactedPending)-16]) // truncated compacted tail
	f.Add(badBase)
	f.Add(v2)
	baseField := append([]byte(nil), compacted...)
	baseField[len(baseField)-20] ^= 0x80 // inside the trailing base/checksum region
	f.Add(baseField)
	f.Add(valid[:8])
	f.Add(valid[:9])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8])
	f.Add(interactive[:len(interactive)-24]) // truncated inside the input sections
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xFF
	f.Add(flipped)
	script := append([]byte(nil), interactive...)
	script[150] ^= 0x20 // inside the embedded script text
	f.Add(script)
	f.Add(synthesizeV1(f, 48, 11))
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Add(collidingKeys)
	mech := game.NewMechanics()
	f.Fuzz(func(t *testing.T, data []byte) {
		if sess, err := Open(bytes.NewReader(data), mech, Options{}); err == nil {
			if err := sess.Step(1); err != nil {
				t.Skipf("opened session step failed: %v", err)
			}
		}
		e, err := Restore(bytes.NewReader(data), prog, mech, Options{})
		if err != nil {
			return
		}
		// Whatever restored must be a usable engine.
		if err := e.Tick(); err != nil {
			t.Skipf("restored engine tick failed: %v", err)
		}
	})
}

// A checksum-valid v2 stream whose embedded script does not compile must
// fail Open with an error, not a panic — the script section is data, not
// trusted code. (Engine-internal surgery: rewrite the source and
// re-checkpoint, so the checksum is honest.)
func TestOpenBadEmbeddedScript(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 40, Indexed, 2, nil)
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, src string }{
		{"parse-error", "function main(u) {"},
		{"check-error", "function main(u) { perform NoSuchAction(u) }"},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e.source = tc.src
			var buf bytes.Buffer
			if err := e.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(bytes.NewReader(buf.Bytes()), game.NewMechanics(), Options{}); err == nil ||
				!strings.Contains(err.Error(), "embedded script") {
				t.Fatalf("Open with %s script: err = %v, want embedded-script error", tc.name, err)
			}
		})
	}
}
