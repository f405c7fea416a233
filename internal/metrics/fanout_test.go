package metrics_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/engine"
	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/metrics"
	"github.com/epicscale/sgl/internal/workload"
)

// FanoutQuery is what the repository benchmark's spectators ask, with
// three positional arguments and no unit. Over a live battle, its indexed
// answer, its scan answer and a count taken straight off the environment
// must agree exactly, in every window from empty to the whole map.
func TestFanoutQueryIndexedMatchesScan(t *testing.T) {
	q, err := engine.CompileQuery(metrics.FanoutQuery, game.Schema(), game.Consts())
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Outputs(); !slices.Equal(got, []string{"n", "hp"}) {
		t.Fatalf("outputs = %v, want [n hp]", got)
	}
	prog, err := game.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{60, 200, 500} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			spec := workload.Spec{Units: n, Density: 0.02, Seed: 11, Formation: workload.BattleLines}
			e, err := engine.New(prog, game.NewMechanics(), workload.Generate(spec), engine.Options{
				Mode: engine.Indexed, Categoricals: game.Categoricals(), Seed: 11, Side: spec.Side(), MoveSpeed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(5); err != nil {
				t.Fatal(err)
			}
			env := e.Env()
			px, py, hp := env.Schema.MustCol("posx"), env.Schema.MustCol("posy"), env.Schema.MustCol("health")
			// Windows centre on units; at radius 0 the unit stands on all
			// four edges, where the bounds are inclusive.
			side := spec.Side()
			partial := false
			for i := 0; i < 48; i++ {
				at := env.Rows[37*i%env.Len()]
				x, y := at[px], at[py]
				r := []float64{0, 3, 12, side}[i%4]
				var want [2]float64
				for _, row := range env.Rows {
					if row[px] >= x-r && row[px] <= x+r && row[py] >= y-r && row[py] <= y+r {
						want[0]++
						want[1] += row[hp]
					}
				}
				partial = partial || (want[0] > 0 && int(want[0]) < env.Len())
				idx, err := e.ReadView().Query(q, engine.World(), x, y, r)
				if err != nil {
					t.Fatal(err)
				}
				scan, err := e.ReadView().QueryScan(q, engine.World(), x, y, r)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(idx, want[:]) || !slices.Equal(scan, want[:]) {
					t.Fatalf("window (%.1f, %.1f, r=%.1f): indexed %v, scan %v, environment %v", x, y, r, idx, scan, want)
				}
			}
			if !partial {
				t.Error("no window held some but not all units: the comparison proved nothing")
			}
		})
	}
}
