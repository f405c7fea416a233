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
)

// restoreWorkers are the shard counts a checkpoint is resumed under. The
// exactness contract says the count must not matter.
var restoreWorkers = []int{1, 4}

// TestCheckpointResumeBitIdentical is the acceptance harness for the
// checkpoint exactness contract: for every zoo program and the battle
// simulation, checkpoint at tick T ∈ {1, 7, mid-run}, reopen, run to
// tick N — the checkpoint bytes must equal the uninterrupted run's, at
// Workers ∈ {1, 4}, and regardless of which configuration wrote the
// checkpoint. Every run admits the same mid-tick
// traffic (admitMidTick), before and after the cut.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	const units, ticks = 64, 20
	mk := func(progName, src string, battle bool, n int) {
		t.Run(progName, func(t *testing.T) {
			prog := battleProg(t)
			if !battle {
				prog = compileZoo(t, src)
			}
			mid := admitMidTick(t)
			oracle := newEngine(t, prog, n, Indexed, 7, func(o *Options) { o.Workers, o.midTick = 1, mid })
			if err := oracle.Run(ticks); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := oracle.Checkpoint(&want); err != nil {
				t.Fatal(err)
			}
			for _, at := range []int{1, 7, ticks / 2} {
				// The writer runs under the hostile configuration (sharded,
				// always-maintain); the format must not leak any of it.
				writer := newEngine(t, prog, n, Indexed, 7, func(o *Options) {
					o.Workers = 4
					o.threshold = 1
					o.midTick = mid
				})
				if err := writer.Run(at); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := writer.Checkpoint(&buf); err != nil {
					t.Fatal(err)
				}
				for _, w := range restoreWorkers {
					restored := reopen(t, buf.Bytes(), Options{Workers: w, threshold: 1})
					restored.opts.midTick = mid
					if restored.TickCount() != int64(at) {
						t.Fatalf("restored tick counter %d, want %d", restored.TickCount(), at)
					}
					if err := restored.Run(ticks - at); err != nil {
						t.Fatal(err)
					}
					var got bytes.Buffer
					if err := restored.Checkpoint(&got); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want.Bytes(), got.Bytes()) {
						t.Fatalf("resume from tick %d at w=%d diverged from the uninterrupted run", at, w)
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
// yields identical bytes, and write → open → write is a fixed point.
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
	var c bytes.Buffer
	if err := reopen(t, a.Bytes(), Options{}).Checkpoint(&c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("open → checkpoint is not a fixed point")
	}
}

// Reopening a naive-mode checkpoint preserves the mode (naive and
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
	restored := reopen(t, buf.Bytes(), Options{})
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
// problem, never panic or open silently wrong state.
func TestOpenErrorPaths(t *testing.T) {
	valid := checkpointBytes(t, battleProg(t))
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
			_, err := Open(bytes.NewReader(tc.input), game.NewMechanics(), Options{})
			if err == nil {
				t.Fatal("corrupted checkpoint opened without error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
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

// FuzzOpen: arbitrary bytes must never panic either reader of the
// checkpoint format — Open (the current layout, which also parses the
// embedded script) or Upgrade (every layout, given the battle program
// for version 1) — and whatever Upgrade writes must open or fail with an
// error, never panic. Seeds cover a current checkpoint with live input
// sections (journal, pending commands, sequence counters), compacted
// streams (nonzero base, with and without a pending tail, truncated, and
// with a checksum-valid but self-contradictory base field), a pending
// entry stamped for the wrong tick, interesting prefixes including one
// that truncates inside the input sections, corruption inside the
// embedded script region, colliding keys, the legacy version 1 through 4
// fixtures, and each of them upgraded to version 5.
func FuzzOpen(f *testing.F) {
	prog := battleProg(f)
	valid := checkpointBytes(f, prog)

	// A checkpoint whose script/consts/inputs sections are all nonempty:
	// applied commands, a journal, and a pending entry.
	interactive := func() []byte {
		e := newEngine(f, prog, 48, Indexed, 11, nil)
		if _, err := e.SubmitSharded("fuzz", Command{Op: OpSet, Key: 1, Col: "health", Val: 9}); err != nil {
			f.Fatal(err)
		}
		if err := e.Run(2); err != nil {
			f.Fatal(err)
		}
		if _, err := e.SubmitSharded("fuzz", Command{Op: OpDespawn, Key: 2}); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()

	// Compacted streams (nonzero journal base), with and without a pending
	// tail, plus a checksum-valid stream whose base field contradicts its
	// own journal.
	compacted, compactedPending, badBase := func() (a, b, c []byte) {
		e := newEngine(f, prog, 64, Indexed, 17, nil)
		if _, err := e.SubmitSharded("fuzz", Command{Op: OpSet, Key: 3, Col: "morale", Val: 4}); err != nil {
			f.Fatal(err)
		}
		if err := e.Run(3); err != nil {
			f.Fatal(err)
		}
		e.Compact()
		var cbuf bytes.Buffer
		if err := e.Checkpoint(&cbuf); err != nil {
			f.Fatal(err)
		}
		if _, err := e.SubmitSharded("fuzz", Command{Op: OpDespawn, Key: 5}); err != nil {
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
		return cbuf.Bytes(), pbuf.Bytes(), bbuf.Bytes()
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
	for _, fx := range legacyFixtures {
		old := readFixture(f, fx.file)
		f.Add(old)
		f.Add(upgrade(f, old, prog))
	}
	f.Add(misstampedPending(f, prog))
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Add(collidingKeys)
	mech := game.NewMechanics()
	step := func(t *testing.T, data []byte) {
		if sess, err := Open(bytes.NewReader(data), mech, Options{}); err == nil {
			if err := sess.Step(1); err != nil {
				t.Skipf("opened session step failed: %v", err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		step(t, data)
		var up bytes.Buffer
		if err := Upgrade(bytes.NewReader(data), &up, prog); err == nil {
			step(t, up.Bytes())
		}
	})
}

// misstampedPending is a checksum-valid stream whose pending entry is
// stamped with the checkpoint's own tick, the way version 4 stamped it.
func misstampedPending(t testing.TB, prog *sem.Program) []byte {
	e := newEngine(t, prog, 40, Indexed, 4, nil)
	if err := e.Run(2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitSharded("t", Command{Op: OpSet, Key: 1, Col: "morale", Val: 3}); err != nil {
		t.Fatal(err)
	}
	e.drainAdmission()
	e.pending[0].Tick = e.tick
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Every pending entry of a version-5 stream precedes the next decision:
// one stamped otherwise — a version-4 stamp under a version-5 tag — would
// apply one decision away from where it was admitted, so Open refuses it.
func TestOpenRejectsMisstampedPending(t *testing.T) {
	_, err := Open(bytes.NewReader(misstampedPending(t, battleProg(t))), game.NewMechanics(), Options{})
	if err == nil || !strings.Contains(err.Error(), "pending entry 0 stamped tick 2, want 3") {
		t.Fatalf("Open = %v, want the misstamped pending entry refused", err)
	}
}

// A checksum-valid stream whose embedded script does not compile must
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
