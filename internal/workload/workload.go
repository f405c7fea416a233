// Package workload generates the initial armies for the experiments of
// paper Section 6. The key knob is *density*: the paper varies the number
// of units while sizing the playing grid so that a constant fraction of
// grid squares is occupied (1% for Figure 10), and separately varies
// density at fixed unit count (0.5%–8%).
package workload

import (
	"math"

	"github.com/epicscale/sgl/internal/game"
	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/index/grid"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/table"
)

// Formation selects the initial spatial arrangement.
type Formation int

// Formations.
const (
	// Scattered places units uniformly at random — the paper's setup.
	Scattered Formation = iota
	// BattleLines places the two armies in opposing clustered bands, the
	// configuration that stresses overlap-heavy aggregates.
	BattleLines
)

// Spec describes one army-generation request.
type Spec struct {
	Units     int
	Density   float64 // fraction of grid squares occupied, e.g. 0.01
	Formation Formation
	Seed      uint64
	// Mix is the unit-type distribution (knight, archer, healer) as
	// weights; zero value means the default 3:2:1.
	Mix [3]int
}

// Side returns the grid edge length implied by the spec: units/density
// squares total.
func (s Spec) Side() float64 {
	d := s.Density
	if d <= 0 {
		d = 0.01
	}
	return math.Ceil(math.Sqrt(float64(s.Units) / d))
}

// Generate builds the initial environment table for a spec. Units split
// evenly between the two players; positions are distinct grid squares
// (one unit per square, like the engine's collision rule).
func Generate(spec Spec) *table.Table {
	side := spec.Side()
	mix := spec.Mix
	if mix == [3]int{} {
		mix = [3]int{3, 2, 1}
	}
	totalMix := mix[0] + mix[1] + mix[2]

	st := rng.NewStream(rng.New(spec.Seed), 99)
	occ := grid.NewOccupancy(spec.Units)
	env := table.New(game.Schema(), spec.Units)

	place := func(key int64, player int) geom.Point {
		for {
			var x, y float64
			switch spec.Formation {
			case BattleLines:
				// Player 0 in the left third, player 1 in the right third,
				// clustered vertically around the middle.
				band := side / 3
				if player == 0 {
					x = math.Floor(st.Float64() * band)
				} else {
					x = math.Floor(side - 1 - st.Float64()*band)
				}
				y = math.Floor(side/4 + st.Float64()*side/2)
			default:
				x = float64(st.Intn(int(side)))
				y = float64(st.Intn(int(side)))
			}
			if occ.Place(x, y, int32(key)) { // keys are row numbers here
				return geom.Point{X: x, Y: y}
			}
		}
	}

	for i := 0; i < spec.Units; i++ {
		player := i % 2
		// Deterministic type assignment respecting the mix ratio.
		slot := i / 2 % totalMix
		unitType := game.Knight
		switch {
		case slot >= mix[0]+mix[1]:
			unitType = game.Healer
		case slot >= mix[0]:
			unitType = game.Archer
		}
		pos := place(int64(i), player)
		env.Append(game.NewUnit(int64(i), player, unitType, pos))
	}
	return env
}
