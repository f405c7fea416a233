package algebra

import (
	"fmt"
	"testing"

	"github.com/epicscale/sgl/internal/exec"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/interp"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// The zoo scripts reference unittype, which the local test schema lacks;
// give them the minimal schema both the exec test schema and the battle
// schema agree on.
func zooSchema(t testing.TB) *table.Schema {
	t.Helper()
	return table.MustSchema(
		table.Attr{Name: "key", Kind: table.Const},
		table.Attr{Name: "player", Kind: table.Const},
		table.Attr{Name: "unittype", Kind: table.Const},
		table.Attr{Name: "posx", Kind: table.Const},
		table.Attr{Name: "posy", Kind: table.Const},
		table.Attr{Name: "health", Kind: table.Const},
		table.Attr{Name: "cooldown", Kind: table.Const},
		table.Attr{Name: "damage", Kind: table.Sum},
	)
}

func compileZooProg(t testing.TB, src string) *sem.Program {
	t.Helper()
	s, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := sem.Check(s, zooSchema(t), map[string]float64{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func randomZooArmy(t testing.TB, seed uint64, n int, side float64) *table.Table {
	t.Helper()
	st := rng.NewStream(rng.New(seed), 77)
	env := table.New(zooSchema(t), n)
	for i := 0; i < n; i++ {
		env.Append([]float64{
			float64(i), float64(i % 2), float64(st.Intn(10)),
			float64(st.Intn(int(side))), float64(st.Intn(int(side))),
			float64(st.Intn(30)), float64(st.Intn(3)), 0,
		})
	}
	return env
}

// TestOptimizePropertyZoo is the property test for the optimizer: over
// every script in the exported zoo and a spread of randomized
// environments, the optimized plan must produce a tick bit-identical to
// the unoptimized plan and the interpreter — under the naive provider and
// the indexed provider (whose sweep-line batch evaluation exercises the
// streaming pipelines' blocking stages).
func TestOptimizePropertyZoo(t *testing.T) {
	for _, zp := range exec.Zoo {
		zp := zp
		t.Run(zp.Name, func(t *testing.T) {
			prog := compileZooProg(t, zp.Src)
			for _, seed := range []uint64{2, 19, 443} {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					env := randomZooArmy(t, seed, 48, 30)
					r := rng.New(seed).Tick(int64(seed % 7))
					want, err := interp.RunTickNaive(prog, env, r)
					if err != nil {
						t.Fatal(err)
					}
					an := exec.NewAnalyzer(prog, []string{"player", "unittype"})
					// Both plans over the *same provider* share the
					// Apply-major emission order (including each performer's
					// target visit order), so they must agree cell-exactly
					// including row order. Across providers — and against the
					// unit-at-a-time interpreter — only target visit order
					// may differ, so those comparisons are keyed.
					ref := map[string]*table.Table{}
					for _, opt := range []bool{false, true} {
						plan, err := Translate(prog)
						if err != nil {
							t.Fatal(err)
						}
						if opt {
							Optimize(plan)
						}
						for _, provName := range []string{"naive", "indexed"} {
							var prov interp.Provider
							if provName == "naive" {
								prov = interp.NewNaive(prog, env, r)
							} else {
								prov = exec.NewIndexed(an, env, r)
							}
							got, err := NewExecutor(prog, plan, env, prov, r).Tick()
							if err != nil {
								t.Fatal(err)
							}
							if !keyedBitsEqual(got, want) {
								t.Fatalf("opt=%v prov=%s: tick differs from interpreter", opt, provName)
							}
							if ref[provName] == nil {
								ref[provName] = got
							} else if !bitsEqualTables(got, ref[provName]) {
								t.Fatalf("opt=%v prov=%s: tick not bit-identical to reference executor run", opt, provName)
							}
						}
					}
				})
			}
		})
	}
}
