package exec

import (
	"testing"

	"github.com/epicscale/sgl/internal/algebra"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// compiledTick translates, optimizes, and executes a program for one
// tick — the compiled counterpart of interp.RunTickNaive.
func compiledTick(prog *sem.Program, env *table.Table, prov interp.Provider, r rng.TickSource) (*table.Table, error) {
	plan, err := algebra.Translate(prog)
	if err != nil {
		return nil, err
	}
	algebra.Optimize(plan)
	return algebra.NewExecutor(prog, plan, env, prov, r).Tick()
}

// The script zoo lives in zoo.go (exported as Zoo) so the engine's
// serial-vs-parallel determinism suite can reuse it.

func TestScriptZooDifferential(t *testing.T) {
	for _, tc := range Zoo {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			prog := compile(t, tc.Src)
			an := NewAnalyzer(prog, categoricals())
			for seed := uint64(1); seed <= 3; seed++ {
				env := randomArmy(t, seed, 70, 25)
				r := rng.New(seed).Tick(int64(seed))

				want, err := interp.RunTickNaive(prog, env, r)
				if err != nil {
					t.Fatalf("interp: %v", err)
				}
				planNaive, err := compiledTick(prog, env, interp.NewNaive(prog, env, r), r)
				if err != nil {
					t.Fatalf("plan+naive: %v", err)
				}
				if !planNaive.AlmostEqualContents(want, 1e-9) {
					t.Fatalf("seed %d: plan+naive differs from interpreter", seed)
				}
				planIndexed, err := compiledTick(prog, env, NewIndexed(an, env, r), r)
				if err != nil {
					t.Fatalf("plan+indexed: %v", err)
				}
				if !planIndexed.AlmostEqualContents(want, 1e-9) {
					t.Fatalf("seed %d: plan+indexed differs from interpreter", seed)
				}
			}
		})
	}
}

// The zoo again, but through batch evaluation (the engine's hot path):
// every aggregate of every zoo program answered per-probe and in batch.
func TestScriptZooBatchAgreement(t *testing.T) {
	for _, tc := range Zoo {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			prog := compile(t, tc.Src)
			an := NewAnalyzer(prog, categoricals())
			env := randomArmy(t, 9, 60, 20)
			r := rng.New(9).Tick(3)
			for _, def := range prog.Script.Aggs {
				var args [][]float64
				if len(def.Params) > 1 {
					args = make([][]float64, env.Len())
					for i := range args {
						vals := make([]float64, len(def.Params)-1)
						for j := range vals {
							vals[j] = float64(2 + j)
						}
						args[i] = vals
					}
				}
				batch := NewIndexed(an, env, r).EvalAggBatch(def, env.Rows, args)
				single := NewIndexed(an, env, r)
				for i, u := range env.Rows {
					var arg []float64
					if args != nil {
						arg = args[i]
					}
					want := single.EvalAgg(def, u, arg)
					for j := range want {
						if !almostSame(want[j], batch[i][j]) {
							t.Fatalf("agg %s unit %d out %d: single %v batch %v",
								def.Name, i, j, want[j], batch[i][j])
						}
					}
				}
			}
		})
	}
}

func almostSame(a, b float64) bool {
	if a == b {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
