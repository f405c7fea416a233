package engine

import (
	"fmt"
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// identicalTables reports cell-exact equality including row order: every
// cell must match bit for bit (Float64bits, so NaN and signed zero are
// compared exactly). This is the parallel executor's hard invariant — not
// "almost equal", not order-insensitive.
func identicalTables(a, b *table.Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Rows {
		for c := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][c]) != math.Float64bits(b.Rows[i][c]) {
				return false
			}
		}
	}
	return true
}

func compileZoo(t testing.TB, src string) *sem.Program {
	t.Helper()
	script, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.Check(script, game.Schema(), game.Consts())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runWorkers(t *testing.T, prog *sem.Program, mode Mode, workers, units, ticks int, seed uint64) *table.Table {
	t.Helper()
	e := newEngine(t, prog, units, mode, seed, func(o *Options) { o.Workers = workers })
	if err := e.Run(ticks); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return e.Env()
}

// TestParallelMatchesSerial is the headline determinism proof: for every
// program in the script zoo, 50 ticks at Workers ∈ {1, 2, 3, 8} must
// leave an environment table byte-identical to the serial run — cell
// exact, row order included.
func TestParallelMatchesSerial(t *testing.T) {
	const units, ticks = 64, 50
	for _, zp := range exec.Zoo {
		zp := zp
		t.Run(zp.Name, func(t *testing.T) {
			prog := compileZoo(t, zp.Src)
			serial := runWorkers(t, prog, Indexed, 1, units, ticks, 7)
			for _, w := range []int{1, 2, 3, 8} {
				got := runWorkers(t, prog, Indexed, w, units, ticks, 7)
				if !identicalTables(serial, got) {
					t.Fatalf("indexed workers=%d diverged from serial after %d ticks", w, ticks)
				}
			}
			// The sharded interpreter path must honor the same contract.
			naiveSerial := runWorkers(t, prog, Naive, 1, units, ticks, 7)
			for _, w := range []int{3} {
				got := runWorkers(t, prog, Naive, w, units, ticks, 7)
				if !identicalTables(naiveSerial, got) {
					t.Fatalf("naive workers=%d diverged from serial after %d ticks", w, ticks)
				}
			}
		})
	}
}

// The battle simulation adds movement, deaths, resurrection, and the
// deferred heal aura (the Section 5.4 effect index) to the mix.
func TestParallelMatchesSerialBattle(t *testing.T) {
	prog := battleProg(t)
	const units, ticks = 90, 40
	for _, mode := range []Mode{Indexed, Naive} {
		serial := runWorkers(t, prog, mode, 1, units, ticks, 13)
		for _, w := range []int{2, 3, 8} {
			t.Run(fmt.Sprintf("%s-w%d", mode, w), func(t *testing.T) {
				got := runWorkers(t, prog, mode, w, units, ticks, 13)
				if !identicalTables(serial, got) {
					t.Fatalf("%s workers=%d diverged from serial after %d ticks", mode, w, ticks)
				}
			})
		}
	}
}

// Ablation options must compose with sharding.
func TestParallelMatchesSerialAblations(t *testing.T) {
	prog := battleProg(t)
	for _, tweak := range []struct {
		name string
		fn   func(*Options)
	}{
		{"no-area-defer", func(o *Options) { o.DisableAreaDefer = true }},
		{"no-optimizer", func(o *Options) { o.DisableOptimizer = true }},
	} {
		t.Run(tweak.name, func(t *testing.T) {
			mk := func(w int) *Engine {
				return newEngine(t, prog, 72, Indexed, 17, func(o *Options) {
					tweak.fn(o)
					o.Workers = w
				})
			}
			serial, par := mk(1), mk(4)
			if err := serial.Run(25); err != nil {
				t.Fatal(err)
			}
			if err := par.Run(25); err != nil {
				t.Fatal(err)
			}
			if !identicalTables(serial.Env(), par.Env()) {
				t.Fatalf("%s: workers=4 diverged from serial", tweak.name)
			}
		})
	}
}

// Per-worker effect counters must account for every applied effect.
func TestEffectsByWorkerAccounting(t *testing.T) {
	prog := battleProg(t)
	e := newEngine(t, prog, 80, Indexed, 23, func(o *Options) { o.Workers = 4 })
	if err := e.Run(15); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range e.Stats.EffectsByWorker {
		sum += c
	}
	if e.Stats.EffectsApplied == 0 {
		t.Fatal("no effects applied in 15 ticks")
	}
	if sum != e.Stats.EffectsApplied {
		t.Fatalf("per-worker counters sum to %d, want EffectsApplied=%d", sum, e.Stats.EffectsApplied)
	}
	if len(e.Stats.EffectsByWorker) != 4 {
		t.Fatalf("want 4 worker slots, got %d", len(e.Stats.EffectsByWorker))
	}
}

// shardBounds must cover [0, n) exactly, in order, for any worker count.
func TestShardBounds(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, p := range []int{1, 2, 3, 8, 100} {
			bounds := shardBounds(n, p)
			pos := 0
			for _, b := range bounds {
				if b[0] != pos || b[1] < b[0] {
					t.Fatalf("n=%d p=%d: bad bounds %v", n, p, bounds)
				}
				pos = b[1]
			}
			if pos != n {
				t.Fatalf("n=%d p=%d: bounds cover [0,%d), want [0,%d)", n, p, pos, n)
			}
			if len(bounds) > p || (n > 0 && len(bounds) > n) {
				t.Fatalf("n=%d p=%d: %d shards", n, p, len(bounds))
			}
		}
	}
}
