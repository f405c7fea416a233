package exec

import (
	"math"
	"testing"

	"github.com/epicscale/sgl/internal/index/kdtree"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/ast"
	"github.com/epicscale/sgl/internal/table"
)

// certScript holds two certifiable nearest definitions: one over a
// filtered partition of the probe's own player (every nearest output),
// one over the other player's partitions (a ≠ match).
const certScript = `
aggregate NearScout(u) :=
  nearestkey() as key, nearestdist() as d, nearestx() as x, nearesty() as y
  over e where e.player = u.player and e.unittype = 2;

aggregate NearFoe(u) :=
  nearestkey() as key
  over e where e.player <> u.player;

action Strike(u, k) :=
  on e where e.key = k
  set damage = 1;

function main(u) {
  if NearScout(u).d < 1 then perform Strike(u, NearFoe(u))
}
`

// Columns of the test schema the certificate worlds write.
const (
	cKey, cPlayer, cType, cX, cY, cHealth = 0, 1, 2, 3, 4, 5
)

// certWorld drives providers tick after tick the way the engine and the
// executor do — each maintained from its predecessor, every row's answer
// carried, certified or probed into the row's memo slot — and holds each
// answer to a fresh provider's probe over the same rows, bit for bit:
// certified ≡ re-probed.
type certWorld struct {
	t     *testing.T
	an    *Analyzer
	defs  []*ast.AggDef
	env   *table.Table
	prev  *Indexed
	last  [][]float64
	vals  [][][]float64 // by definition, by row
	had   [][]bool
	tick  int
	stats Stats
}

func newCertWorld(t *testing.T, rows [][]float64) *certWorld {
	t.Helper()
	prog := compile(t, certScript)
	env := table.New(testSchema(t), len(rows))
	for _, r := range rows {
		row := make([]float64, env.Schema.NumAttrs())
		copy(row, r)
		env.Append(row)
	}
	w := &certWorld{t: t, an: NewAnalyzer(prog, categoricals()), env: env}
	for _, def := range prog.Script.Aggs {
		if w.an.Agg(def).cert < 0 {
			t.Fatalf("%s has no certificate ordinal", def.Name)
		}
		w.defs = append(w.defs, def)
		vals := make([][]float64, len(rows))
		for i := range vals {
			vals[i] = make([]float64, len(def.Outputs))
		}
		w.vals = append(w.vals, vals)
		w.had = append(w.had, make([]bool, len(rows)))
	}
	return w
}

// unitRow is a unit of the test schema at (x, y) with full health.
func unitRow(key, player, unittype int, x, y float64) []float64 {
	return []float64{float64(key), float64(player), float64(unittype), x, y, 10, 10, 0, 4, 1}
}

// row returns the live row of the unit keyed key.
func (w *certWorld) row(key int) []float64 {
	for _, r := range w.env.Rows {
		if r[cKey] == float64(key) {
			return r
		}
	}
	w.t.Fatalf("no unit %d", key)
	return nil
}

// step runs one tick over the current rows and returns how many answers
// it certified.
func (w *certWorld) step() int {
	t := w.t
	t.Helper()
	r := rng.New(1).Tick(int64(w.tick))
	p := NewIndexed(w.an, w.env, r)
	if w.prev != nil {
		var d Delta
		for i, row := range w.env.Rows {
			var m uint64
			for c, v := range row {
				if math.Float64bits(v) != math.Float64bits(w.last[i][c]) {
					m |= ColBit(c)
				}
			}
			if m != 0 {
				d.Dirty, d.Masks = append(d.Dirty, i), append(d.Masks, m)
			}
		}
		p.MaintainFrom(w.prev, d, 1)
		p.Recycle(w.prev)
	}
	fresh := NewIndexed(w.an, w.env, r)
	for di, def := range w.defs {
		for i, unit := range w.env.Rows {
			dst := w.vals[di][i]
			if !(w.had[di][i] && p.Carries(dst, def, i)) {
				p.EvalAggRow(dst, def, i, unit, nil)
			}
			w.had[di][i] = true
			want := fresh.EvalAgg(def, unit, nil)
			for c := range want {
				if math.Float64bits(dst[c]) != math.Float64bits(want[c]) {
					t.Fatalf("tick %d: %s of unit %v output %d = %v, a fresh probe answers %v",
						w.tick, def.Name, unit[cKey], c, dst, want)
				}
			}
		}
	}
	w.last = w.last[:0]
	for _, row := range w.env.Rows {
		w.last = append(w.last, append([]float64(nil), row...))
	}
	w.prev = p
	w.tick++
	w.stats.Add(p.Stats)
	return p.Stats.CertifiedAnswers
}

// garrison is the worlds' common layout around origin (ox, oy): a
// stationary knight of each player — the probes — and scouts of both
// players at the given offsets, keyed 10, 11, … in order.
func garrison(ox, oy float64, scouts ...[3]float64) [][]float64 {
	rows := [][]float64{unitRow(1, 0, 0, ox, oy), unitRow(2, 1, 0, ox+40, oy+40)}
	for i, s := range scouts {
		rows = append(rows, unitRow(10+i, int(s[0]), 2, ox+s[1], oy+s[2]))
	}
	return rows
}

// warm runs the ticks that let a certificate form — a fresh tick, then a
// maintained one after the scouts moved, whose stationary probes search
// again and record — then one more tick of small moves by every scout,
// which must certify something.
func (w *certWorld) warm() {
	w.t.Helper()
	w.step()
	w.nudge(0.5)
	w.step()
	w.nudge(0.5)
	if w.step() == 0 {
		w.t.Fatal("no answer certified after the scouts' small moves")
	}
}

// nudge moves every scout by dy.
func (w *certWorld) nudge(dy float64) {
	for _, row := range w.env.Rows {
		if row[cType] == 2 {
			row[cY] += dy
		}
	}
}

// TestCertifiedMatchesReprobed plays the moves that must break a
// certificate, each on a world where certificates fire: every answer,
// every tick, must equal a fresh probe's bits.
func TestCertifiedMatchesReprobed(t *testing.T) {
	scouts := [][3]float64{{0, 3, 0}, {0, 9, 4}, {0, 20, -6}, {1, 5, 5}, {1, 30, 30}}
	for _, tc := range []struct {
		name  string
		event func(w *certWorld)
	}{
		// Scout 12 lands exactly as far from knight 1 as its winner,
		// scout 10: the smaller key wins the tie.
		{"equidistant tie, smaller key", func(w *certWorld) {
			w.row(12)[cX], w.row(12)[cY] = w.row(1)[cX]-w.row(10)[cX]+w.row(1)[cX], w.row(10)[cY]
		}},
		// A near mover may close to exactly the winner's distance: the
		// separation bound is strict, so it never certifies a tie away.
		{"near-mover tie", func(w *certWorld) {
			w.row(11)[cX], w.row(11)[cY] = w.row(1)[cX], w.row(1)[cY]+w.row(10)[cX]-w.row(1)[cX]+0.5
		}},
		{"teleport by posx", func(w *certWorld) { w.row(12)[cX] = w.row(1)[cX] + 1 }},
		{"winner changes partition", func(w *certWorld) { w.row(10)[cType] = 0 }},
		{"unit joins the partition", func(w *certWorld) {
			w.row(13)[cPlayer] = 0
			w.row(13)[cX], w.row(13)[cY] = w.row(1)[cX]-1, w.row(1)[cY]
		}},
		{"winner respawns", func(w *certWorld) {
			w.row(10)[cX], w.row(10)[cY], w.row(10)[cHealth] = w.row(1)[cX]+60, w.row(1)[cY]+60, 10
		}},
		{"respawn next to the probe", func(w *certWorld) {
			w.row(14)[cX], w.row(14)[cY], w.row(14)[cHealth] = w.row(2)[cX]+1, w.row(2)[cY], 10
		}},
		{"probe moves", func(w *certWorld) { w.row(1)[cX] += 1 }},
	} {
		for _, origin := range []struct {
			name string
			at   float64
		}{{"", 100}, {"/near 2^31", 1<<31 - 200}} {
			t.Run(tc.name+origin.name, func(t *testing.T) {
				w := newCertWorld(t, garrison(origin.at, origin.at, scouts...))
				w.warm()
				tc.event(w)
				for range 4 {
					w.step()
					w.nudge(-0.25)
				}
			})
		}
	}
}

// TestCertifiedRandomWalk random-walks the scouts of a larger army for
// many ticks, with teleports, partition changes, respawns and probe moves
// mixed in at random, and checks every answer every tick against a fresh
// probe; a run that certified nothing would prove nothing.
func TestCertifiedRandomWalk(t *testing.T) {
	for _, seed := range []uint64{3, 4, 5} {
		env := randomArmy(t, seed, 80, 40)
		w := newCertWorld(t, env.Rows)
		st := rng.NewStream(rng.New(seed), 71)
		for tick := 0; tick < 120; tick++ {
			for _, row := range w.env.Rows {
				if row[cType] == 2 && st.Intn(4) > 0 {
					row[cX] += float64(st.Intn(3) - 1)
					row[cY] += float64(st.Intn(3) - 1)
				}
			}
			if tick > 2 {
				row := w.env.Rows[st.Intn(len(w.env.Rows))]
				switch st.Intn(6) {
				case 0: // teleport
					row[cX] = float64(st.Intn(40))
				case 1: // partition change
					row[cType] = float64(st.Intn(3))
				case 2: // respawn
					row[cX], row[cY], row[cHealth] = float64(st.Intn(40)), float64(st.Intn(40)), row[6]
				case 3: // a probe's step
					row[cY]++
				}
			}
			w.step()
		}
		if w.stats.CertifiedAnswers == 0 {
			t.Fatalf("seed %d: nothing certified in %d ticks", seed, w.tick)
		}
	}
}

// TestCertificateMarginCoversRounding builds the case the separation
// test's margin exists for. Scout 3, the first point past knight 1's
// candidates (the winner, scout 5, and the runners-up, scouts 20, …),
// closes in along the ray through the winner and stops on it: in real
// arithmetic the bound L − δ on everything but the candidates equals the
// winner's distance, so the test must not pass, yet for some approach
// lengths the rounded √ of the three squared distances says it does.
// There the smaller key, scout 3, is the answer, and a certificate
// without the margin would keep scout 5.
func TestCertificateMarginCoversRounding(t *testing.T) {
	const px, py = 100.0, 100.0
	wx, wy := px+1, py+1
	dist := func(x, y float64) float64 { dx, dy := x-px, y-py; return math.Sqrt(dx*dx + dy*dy) }
	found := 0
	for i := 1; i < 1400 && found < 3; i++ {
		s := float64(i) / 1000
		fx, fy := wx+s, wy+s
		ex, ey := wx-fx, wy-fy
		step := math.Sqrt(ex*ex + ey*ey)
		if !(dist(wx, wy) < dist(fx, fy)-step) {
			continue // rounding does not fool an unguarded test here
		}
		found++
		// Scout 9 idles far off, stepping a hair each tick so knight 1's
		// partition moves and its probe searches again and records.
		rows := [][]float64{
			unitRow(1, 0, 0, px, py), unitRow(2, 1, 0, px+50, py+50),
			unitRow(5, 0, 2, wx, wy), unitRow(3, 0, 2, fx, fy), unitRow(9, 0, 2, px-40, py),
		}
		for r := 0; r < kdtree.RankDepth-1; r++ { // the runners-up, between the winner and scout 3
			rows = append(rows, unitRow(20+r, 0, 2, px, py-1.4143-0.0002*float64(r)))
		}
		w := newCertWorld(t, rows)
		w.step()
		w.row(9)[cY] += 1e-3
		w.step()
		w.row(3)[cX], w.row(3)[cY] = wx, wy
		w.step()
		w.step()
	}
	if found == 0 {
		t.Fatal("no approach length where rounding alone would certify")
	}
}
