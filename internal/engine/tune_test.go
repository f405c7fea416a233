package engine

import (
	"testing"

	"github.com/epicscale/sgl/internal/table"
)

// tuneScript mentions a constant in every place an expression is compiled:
// an axis bound, an e-only filter and an output argument of an aggregate;
// the axis bound and SET value of a (deferrable) area action; the SET
// value of a by-key action; and, in the plan, a let value, an
// if-condition and a perform argument.
const tuneScript = `
aggregate Near(u) :=
  count(*) as n, sum(e.health * _HEAL_AURA) as hp
  over e where e.posx >= u.posx - _HEALER_RANGE and e.posx <= u.posx + _HEALER_RANGE
    and e.posy >= u.posy - _HEALER_RANGE and e.posy <= u.posy + _HEALER_RANGE
    and e.health >= _PACK_COUNT;
action Aura(u) :=
  on e where e.posx >= u.posx - _HEALER_RANGE and e.posx <= u.posx + _HEALER_RANGE
    and e.posy >= u.posy - _HEALER_RANGE and e.posy <= u.posy + _HEALER_RANGE
    and e.player = u.player
  set inaura = _HEAL_AURA;
action Hit(u, d) :=
  on e where e.key = u.key
  set damage = d + _SPREAD_LIMIT;
function main(u) {
  (let n = Near(u))
  (let k = n.n * _TIME_RELOAD + n.hp) {
    if k > _PACK_COUNT then perform Hit(u, _TIME_RELOAD);
    if u.unittype = 2 then perform Aura(u)
  }
}
`

// tuneAll submits an OpTune of every constant the tune fixture compiles,
// each to a value it has not held.
func tuneAll(t *testing.T, e *Engine) {
	t.Helper()
	for i, name := range []string{"_HEAL_AURA", "_HEALER_RANGE", "_PACK_COUNT", "_SPREAD_LIMIT", "_TIME_RELOAD"} {
		v, _ := e.ConstValue(name)
		if err := e.Submit("ops", Command{Op: OpTune, Col: name, Val: v + float64(i+1)}); err != nil {
			t.Fatal(err)
		}
	}
}

// An OpTune stamped at tick t must change tick t+1 on every evaluation
// path alike. The compiled paths read constants through the engine's
// cells when a closure runs; a constant baked into a closure at compile
// time would leave them on the old value while the walker — which reads
// the live table from the AST — moves. The Naive run checks every tick's
// decision phase against the walker; Indexed (any Workers, maintaining
// its indexes or rebuilding them) must then agree with Naive.
func TestTuneReachesCompiledExprs(t *testing.T) {
	prog := compileZoo(t, tuneScript)
	const units, tuneAt, ticks = 120, 5, 12

	run := func(mode Mode, workers int, threshold float64, tune bool) *table.Table {
		checked := 0
		e := newEngine(t, prog, units, mode, 9, func(o *Options) {
			o.Workers, o.threshold = workers, threshold
			if mode == Naive {
				o.midTick = walkerDecides(t, &checked)
			}
		})
		for tick := 0; tick < ticks; tick++ {
			if tune && tick == tuneAt {
				tuneAll(t, e)
			}
			if err := e.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if mode == Naive && checked != ticks {
			t.Fatalf("the walker checked %d of %d ticks", checked, ticks)
		}
		return e.Env()
	}

	naive := run(Naive, 1, 0, true)
	if untuned := run(Naive, 1, 0, false); identicalTables(naive, untuned) {
		t.Fatal("tuning every constant changed nothing: the fixture does not observe its constants")
	}
	ref := run(Indexed, 1, neverMaintain, true)
	// Scans and indexes fold sums in different association; they agree to
	// rounding, like every other Naive/Indexed comparison in this package.
	if !naive.AlmostEqualContents(ref, 1e-9) {
		t.Fatal("Indexed diverged from Naive after OpTune: a compiled expression did not see the retune")
	}
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			if got := run(Indexed, c.workers, c.threshold(), true); !identicalTables(got, ref) {
				t.Fatal("diverged from serial rebuild after OpTune")
			}
		})
	}
}

// Two engines built from one checked program share its AST, and with it
// every compiled-expression site; each must read its own constant table.
func TestTunedEnginesStayIndependent(t *testing.T) {
	prog := compileZoo(t, tuneScript)
	const units, ticks = 120, 10
	mk := func() *Engine { return newEngine(t, prog, units, Indexed, 9, nil) }

	alone := mk()
	if err := alone.Run(ticks); err != nil {
		t.Fatal(err)
	}

	tuned, sibling := mk(), mk()
	for tick := 0; tick < ticks; tick++ {
		if tick == 3 {
			if err := tuned.Submit("ops", Command{Op: OpTune, Col: "_HEALER_RANGE", Val: 11}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tuned.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := sibling.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !identicalTables(sibling.Env(), alone.Env()) {
		t.Fatal("an engine's OpTune leaked into a sibling built from the same program")
	}
	if identicalTables(tuned.Env(), alone.Env()) {
		t.Fatal("OpTune had no effect on the tuned engine")
	}
}
