// Certified nearest answers. Units move at most one square per tick
// (Section 6), so between two ticks the points of a kD partition are
// mostly where they were, give or take a step. A nearest answer whose
// probe stood still need not be searched again when motion provably could
// not have changed it: every point but the last search's few nearest —
// its winner k and the runners-up, the candidates — was at least L away
// (L is the distance of the first point past them); if no point moved
// more than δ, every one of them is still at least L − δ away, and if
// the nearest candidate, measured afresh, is nearer than that, it wins.
// The few points that moved farther or arrived — a teleport, a respawn, a
// partition change — are checked one by one against it under the
// search's own (distance, key) rule. Keeping the runners-up measured
// rather than bounded is what lets a certificate outlive a few ticks of
// motion: the bound only has to separate the candidates from the rest,
// and their own order is read off exactly.
//
// A certified answer is bit-identical to a fresh search (certified ≡
// re-probed): the winner's outputs are computed with the search's arithmetic, and
// the separation test keeps a relative margin far wider than the rounding
// of the distances it compares, so a computed distance that ties or
// undercuts k's never hides behind one. Maintenance (MaintainFrom)
// supplies the motion; Carries runs the test; the fresh searches of the
// executor's probes (EvalAggRow) record what the next tick's test needs.
package exec

import (
	"math"

	"github.com/epicscale/sgl/internal/index/kdtree"
)

const (
	// nearStep is the largest displacement the separation bound absorbs:
	// one square per tick, with room for a diagonal. A member that moved
	// farther is checked on its own.
	nearStep = 2
	// maxFar is how many far movers a partition lists; past it the
	// partition certifies nothing this tick.
	maxFar = 16
	// certMargin is the relative slack of the separation test, far above
	// the few ulps the distance arithmetic can be off by.
	certMargin = 0x1p-30
	// minCertDistSq is the least squared winner distance a certificate
	// trusts: above it every distance compared is a normal float, whose
	// rounding certMargin bounds.
	minCertDistSq = 0x1p-900
)

// nearCert is what the next tick needs to certify one probe row's
// nearest answer: the rows of the candidates (the search's
// kdtree.RankDepth nearest points; -1 past the last, and a first of -1
// means nothing to certify from), and a lower bound on the distance of
// every other point the probe matched.
type nearCert struct {
	cand [kdtree.RankDepth]int32
	lo   float64
}

// motion is how a partition's kD points moved since the previous tick,
// filled by maintenance: valid when tracked, the largest displacement
// among members that moved at most nearStep, and the members that moved
// farther or were not members before (far).
type motion struct {
	tracked bool
	step    float64
	far     []int32
}

// still marks a partition whose kD points maintenance kept: nothing moved.
func (m *motion) still() { m.tracked, m.step, m.far = true, 0, m.far[:0] }

// trackMotion derives a partition's motion from the points its kD-tree
// was built over last (kdPrev, whose references are their rows) and the
// points pts of its current rows, and remembers pts for the next tick.
// Both ascend by row, so one merge pairs each row with its previous
// point.
func (pt *part) trackMotion(pts []kdtree.Point, tracking bool) {
	m := &pt.motion
	m.still()
	m.tracked = tracking
	if tracking {
		prev, i := pt.kdPrev, 0
		for _, q := range pts {
			for i < len(prev) && prev[i].Ref < q.Ref {
				i++
			}
			if i < len(prev) && prev[i].Ref == q.Ref {
				dx, dy := q.X-prev[i].X, q.Y-prev[i].Y
				if dx == 0 && dy == 0 {
					continue
				}
				if d := math.Sqrt(dx*dx + dy*dy); d <= nearStep {
					m.step = max(m.step, d)
					continue
				}
			}
			if len(m.far) == maxFar {
				m.tracked = false
				break
			}
			m.far = append(m.far, q.Ref)
		}
	}
	pt.kdPrev = append(pt.kdPrev[:0], pts...)
}

// sizeCerts gives the provider one certificate per (certifiable
// definition, row), keeping the predecessor's while the population holds
// and voiding them when it does not. It runs before any fork exists.
func (p *Indexed) sizeCerts() {
	n := p.env.Len()
	if len(p.certs) != p.an.certs {
		p.certs = make([][]nearCert, p.an.certs)
	}
	for c := range p.certs {
		if len(p.certs[c]) != n {
			p.certs[c] = make([]nearCert, n)
			for i := range p.certs[c] {
				p.certs[c][i].cand[0] = -1
			}
		}
	}
}

// certSlot returns row's certificate of a, nil when the provider keeps
// none for it.
func (p *Indexed) certSlot(a *AggAnalysis, row int) *nearCert {
	if row < 0 || a.cert < 0 || a.cert >= len(p.certs) || row >= len(p.certs[a.cert]) {
		return nil
	}
	return &p.certs[a.cert][row]
}

// stationary reports whether nothing a's probe reads off row changed
// since the previous provider: a probe that stood still this tick is
// likely to next tick, and only then is recording a certificate worth
// the wider search.
func (p *Indexed) stationary(a *AggAnalysis, row int) bool {
	return p.changed.ok && p.changed.row[row]&a.reads.u == 0
}

// certify answers a's probe of env row row into dst from its certificate
// when the separation test holds, and carries the certificate forward.
// The probe row is unchanged in every column it reads through u (Carries
// checked), so it matches the partitions it matched, whose motion
// maintenance tracked.
func (c *kdClass) certify(p *Indexed, dst []float64, a *AggAnalysis, row int) bool {
	cert := p.certSlot(a, row)
	if cert == nil || cert.cand[0] < 0 {
		return false
	}
	idx := p.groups[a.group.ord]
	if idx == nil || !idx.built.has(c.slot) || len(idx.rowPart) != p.env.Len() {
		return false
	}
	unit := p.env.Rows[row]
	// The partitions the probe matches, each with its motion tracked.
	parts, matched, ok := p.matchParts(idx, a.Eqs, p.onProbe(unit, nil))
	if !ok {
		return false
	}
	step := 0.0
	for _, pt := range parts {
		if !pt.motion.tracked {
			return false
		}
		step = max(step, pt.motion.step)
	}
	kc, xc, yc := p.prog.Schema.KeyCol(), p.an.posX, p.an.posY
	self, ux, uy := int64(unit[kc]), unit[xc], unit[yc]
	// The candidates, measured afresh: each must still be a point of a
	// matched partition, and the nearest under the search's rule is the
	// answer if the rest stay behind it.
	var best kdtree.Point
	d2 := math.Inf(1)
	for i, cand := range cert.cand {
		if cand < 0 {
			break
		}
		if ord := idx.rowPart[cand]; ord < 0 || matched&(1<<uint(ord)) == 0 {
			return false
		}
		r := p.env.Rows[cand]
		k, x, y := int64(r[kc]), r[xc], r[yc]
		dx, dy := x-ux, y-uy
		if e2 := dx*dx + dy*dy; i == 0 || e2 < d2 || (e2 == d2 && k < best.Key) {
			best, d2 = kdtree.Point{X: x, Y: y, Key: k}, e2
		}
	}
	if !(d2 >= minCertDistSq) {
		return false
	}
	lo := math.Inf(1)
	for _, pt := range parts {
	far:
		for _, j := range pt.motion.far {
			for _, cand := range cert.cand {
				if j == cand {
					continue far // measured above
				}
			}
			r := p.env.Rows[j]
			fk := int64(r[kc])
			if fk == self {
				continue
			}
			ex, ey := r[xc]-ux, r[yc]-uy
			e2 := ex*ex + ey*ey
			if e2 < d2 || (e2 == d2 && fk < best.Key) {
				return false
			}
			lo = min(lo, math.Sqrt(e2)*(1-certMargin))
		}
	}
	bound := (cert.lo - step*(1+certMargin)) * (1 - certMargin)
	if !(math.Sqrt(d2)*(1+certMargin) < bound) {
		return false
	}
	cert.lo = min(bound, lo)
	for i, o := range a.Def.Outputs {
		dst[i] = nearestOutput(o.Func, best.Key, best.X, best.Y, d2)
	}
	return true
}
