package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"github.com/epicscale/sgl/internal/geom"
	"github.com/epicscale/sgl/internal/rng"
	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// observationZoo is the engine's observation-query zoo restated over this
// package's test schema: every output class in each probe form — world
// (parameters only), positional (u.posx/u.posy, nearest outputs) and
// unit-perspective (other attributes of u).
var observationZoo = []struct {
	name, src string
	args      []float64
}{
	{"count-by-player", `aggregate Army(u, p) := count(*) as n, sum(e.health) as hp over e where e.player = p;`, []float64{1}},
	{"zone-divisible", `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp, avg(e.health) as mean, stddev(e.health) as sd
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`, []float64{6, 5, 4}},
	{"census-unfiltered", `
aggregate Census(u) := count(*) as n, sum(e.health) as hp, avg(e.posx) as cx, stddev(e.posy) as sy over e;`, nil},
	{"zone-one-sided", `aggregate East(u, x) := count(*) over e where e.posx >= x;`, []float64{5}},
	{"zone-inverted", `aggregate Nowhere(u, x) := count(*) as n, sum(e.health) as hp over e where e.posx >= x and e.posx <= x - 3;`, []float64{5}},
	{"global-extrema", `
aggregate Strongest(u) :=
  max(e.health) as top, argmax(e.health) as who,
  min(e.health) as low, argmin(e.health) as frail
  over e where e.unittype = 0;`, nil},
	{"window-minmax", `
aggregate WeakestNear(u, x, y, r) :=
  min(e.health) as hp, argmin(e.health) as key
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;`, []float64{5, 6, 4}},
	{"mixed-classes", `
aggregate Recon(u, r) :=
  count(*) as n, argmin(e.health) as weak, avg(e.posx) as cx, nearestkey() as near
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`, []float64{4}},
	{"residual-scan-fallback", `aggregate Diagonal(u, c) := count(*) over e where e.posx + e.posy <= c;`, []float64{11}},
	{"wounded-filter", `
aggregate Wounded(u, p) :=
  count(*) as n, avg(e.maxhealth - e.health) as missing
  over e where e.player = p and e.health < e.maxhealth;`, []float64{0}},
	{"knn-from-position", `
aggregate Closest(u) :=
  nearestkey() as key, nearestdist() as dist, nearestx() as x, nearesty() as y
  over e;`, nil},
	{"knn-filtered", `
aggregate ClosestHealer(u, p) := nearestkey() as key, nearestdist() as dist
  over e where e.player = p and e.unittype = 2;`, []float64{0}},
	{"window-from-position", `
aggregate Here(u, r) :=
  count(*) as n, avg(e.posx) as cx, avg(e.posy) as cy
  over e where e.posx >= u.posx - r and e.posx <= u.posx + r
    and e.posy >= u.posy - r and e.posy <= u.posy + r;`, []float64{3}},
	{"unit-perspective-range", `
aggregate SeenBy(u) :=
  count(*) as n, avg(e.health) as hp
  over e where e.posx >= u.posx - u.range and e.posx <= u.posx + u.range
    and e.posy >= u.posy - u.range and e.posy <= u.posy + u.range
    and e.player <> u.player;`, nil},
	{"unit-perspective-nearest-foe", `
aggregate Foe(u) := nearestkey() as key, nearestdist() as dist
  over e where e.player <> u.player;`, nil},
	{"unit-perspective-extrema", `
aggregate Rival(u) := max(e.health) as top, argmax(e.health) as who
  over e where e.player <> u.player and e.unittype = u.unittype;`, nil},
}

// unbuiltProbes are the probe rows of one environment: every live unit
// (the unit-perspective form), and synthetic observers — key −1, zeros,
// a position — on and off the lattice, at the origin (the world form) and
// at the specials the salted armies carry.
func unbuiltProbes(env *table.Table) [][]float64 {
	probes := append([][]float64(nil), env.Rows...)
	kc, xc, yc := env.Schema.KeyCol(), env.Schema.MustCol("posx"), env.Schema.MustCol("posy")
	for _, at := range [][2]float64{{0, 0}, {3, 7}, {5.5, 5.5}, {11, 0}, {-4, 30},
		{1e300, 2}, {math.Copysign(0, -1), 6}} {
		row := make([]float64, env.Schema.NumAttrs())
		row[kc], row[xc], row[yc] = -1, at[0], at[1]
		probes = append(probes, row)
	}
	return probes
}

// TestUnbuiltMatchesFrozen is the exec-level member of the unbuilt ≡
// built contract: a provider holding a definition's membership and no
// structure (FreezeUnbuilt) answers every probe exactly as the provider
// with every index built (Freeze) — Float64bits, every
// NaN one value — whether it gathers its points from the rows or reads
// them from a position column (SeedPositions), as a read view's does. The definitions are the observation zoo above plus every
// aggregate of the script zoo and the kitchen-sink script; the probes are
// every unit and a set of synthetic observers; the armies stand on a
// 12×12 lattice, so nearest-neighbour distance ties and equal extrema are
// the rule, and the salted ones carry −0 and huge magnitudes in positions
// and health, and ±Inf and NaN in health — where the one-shot range
// evaluations must notice and build. Positions stay finite, as the engine
// keeps them: kdtree.NearestOnce answers finite points only.
func TestUnbuiltMatchesFrozen(t *testing.T) {
	type program struct {
		name string
		prog *sem.Program
		args func(params int) []float64
	}
	sixes := func(params int) []float64 {
		args := make([]float64, params)
		for i := range args {
			args[i] = 6
		}
		return args
	}
	progs := []program{{"kitchen-sink", compile(t, kitchenSinkScript), sixes}}
	for _, zp := range Zoo {
		progs = append(progs, program{zp.Name, compile(t, zp.Src), sixes})
	}
	for _, oq := range observationZoo {
		script, err := parser.Parse(oq.src)
		if err != nil {
			t.Fatalf("%s: %v", oq.name, err)
		}
		prog, err := sem.CheckQuery(script, testSchema(t), testConsts)
		if err != nil {
			t.Fatalf("%s: %v", oq.name, err)
		}
		args := oq.args
		progs = append(progs, program{oq.name, prog, func(int) []float64 { return args }})
	}

	xc, yc, hc := testSchema(t).MustCol("posx"), testSchema(t).MustCol("posy"), testSchema(t).MustCol("health")
	salts := []float64{math.Copysign(0, -1), 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			an := NewAnalyzer(p.prog, categoricals())
			for seed := uint64(1); seed <= 4; seed++ {
				env := randomArmy(t, seed, 90+int(seed)*20, 12)
				// Seeds 3 and 4: salt finite specials, then non-finite
				// health as well.
				if seed >= 3 {
					st := rng.NewStream(rng.New(seed), 71)
					for k := 0; k < 8; k++ {
						col, n := []int{xc, yc, hc}[st.Intn(3)], 2
						if col == hc && seed == 4 {
							n = len(salts)
						}
						env.Rows[st.Intn(env.Len())][col] = salts[st.Intn(n)]
					}
				}
				r := rng.New(seed).Tick(int64(seed))
				probes := unbuiltProbes(env)
				frozen := NewIndexed(an, env, r)
				frozen.Freeze()
				for _, def := range p.prog.Script.Aggs {
					args := p.args(len(def.Params) - 1)
					for _, column := range []bool{false, true} {
						unbuilt := NewIndexed(an, env, r)
						if column {
							unbuilt.SeedPositions(positionColumn(env))
						}
						unbuilt.FreezeUnbuilt(def)
						if unbuilt.Stats.IndexBuilds != 0 {
							t.Fatalf("%s: FreezeUnbuilt built %d structures", def.Name, unbuilt.Stats.IndexBuilds)
						}
						ff, uf := frozen.Fork(), unbuilt.Fork()
						batch := unbuilt.Fork().EvalAggBatch(def, probes, repeatArgs(args, len(probes)))
						for i, unit := range probes {
							want := ff.EvalAgg(def, unit, args)
							got := uf.EvalAgg(def, unit, args)
							into := uf.EvalAggRow(make([]float64, len(want)), def, -1, unit, args)
							for c := range want {
								for how, v := range map[string]float64{"EvalAgg": got[c], "EvalAggRow": into[c], "EvalAggBatch": batch[i][c]} {
									if math.Float64bits(v) != math.Float64bits(want[c]) && !(v != v && want[c] != want[c]) {
										t.Fatalf("seed %d, %s, column %v, probe %d %v, output %d (%s): unbuilt %s %v (%#x), frozen %v (%#x)",
											seed, def.Name, column, i, unit[:5], c, an.Agg(def).OutClass[c], how,
											v, math.Float64bits(v), want[c], math.Float64bits(want[c]))
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// positionColumn gathers env's (posx, posy) column, as a read view
// publishes it.
func positionColumn(env *table.Table) []geom.Point {
	xc, yc := env.Schema.MustCol("posx"), env.Schema.MustCol("posy")
	pos := make([]geom.Point, env.Len())
	for i, row := range env.Rows {
		pos[i] = geom.Point{X: row[xc], Y: row[yc]}
	}
	return pos
}

// implicitPairs are definitions with no e-only conjunct and no partition
// column, each beside its twin whose e-only conjunct e.posx >= 0 every
// row passes (positions are finite and non-negative in randomArmy, −0
// included): the twin's membership is scanned, the first's is not.
const implicitPairs = `
aggregate Zone(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp, stddev(e.health) as sd
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r;
aggregate ZoneScanned(u, x, y, r) :=
  count(*) as n, sum(e.health) as hp, stddev(e.health) as sd
  over e where e.posx >= x - r and e.posx <= x + r
    and e.posy >= y - r and e.posy <= y + r and e.posx >= 0;
aggregate Census(u) := count(*) as n, avg(e.health) as hp, nearestkey() as near over e;
aggregate CensusScanned(u) := count(*) as n, avg(e.health) as hp, nearestkey() as near over e where e.posx >= 0;`

// TestImplicitMembershipMatchesScan holds the membership an unbuilt
// provider's group with no e-only conjunct and no partition column gets
// without a scan — the shared identity rows — to the one the row scan
// returns: one partition keyed "", every row in order (none over no
// rows), and no rowPart. And the answers over it, one-shot with and
// without a position column and built, to the answers of its scanned twin
// (implicitPairs), bit for bit.
func TestImplicitMembershipMatchesScan(t *testing.T) {
	script, err := parser.Parse(implicitPairs)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.CheckQuery(script, testSchema(t), testConsts)
	if err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(prog, categoricals())
	pairs := [][2]string{{"Zone", "ZoneScanned"}, {"Census", "CensusScanned"}}
	for _, n := range []int{0, 1, 2, 37, 150} {
		env := randomArmy(t, uint64(n)+1, n, 12)
		r := rng.New(9).Tick(int64(n))
		scanned := &partIndex{parts: map[string]*part{}}
		NewIndexed(an, env, r).scanMembers(scanned, nil, nil)
		frozen := NewIndexed(an, env, r)
		frozen.Freeze()
		probes := unbuiltProbes(env)
		for _, pair := range pairs {
			def, twin := prog.Script.Agg(pair[0]), prog.Script.Agg(pair[1])
			unbuilt := NewIndexed(an, env, r)
			unbuilt.FreezeUnbuilt(def)
			seeded := NewIndexed(an, env, r)
			seeded.SeedPositions(positionColumn(env))
			seeded.FreezeUnbuilt(def)
			twinUnbuilt := NewIndexed(an, env, r)
			twinUnbuilt.FreezeUnbuilt(twin)
			idx := &unbuilt.groups[an.Agg(def).group.ord].partIndex
			if len(idx.list) != len(scanned.list) || idx.rowPart != nil {
				t.Fatalf("n=%d, %s: %d partitions (rowPart %v), the scan's %d", n, pair[0], len(idx.list), idx.rowPart, len(scanned.list))
			}
			for k, pt := range idx.list {
				if pt.key != scanned.list[k].key || !slices.Equal(pt.rows, scanned.list[k].rows) || pt.ord != int32(k) {
					t.Fatalf("n=%d, %s: partition %d holds rows %v (ordinal %d), the scan's %v", n, pair[0], k, pt.rows, pt.ord, scanned.list[k].rows)
				}
			}
			args := []float64{5, 6, 4}[:len(def.Params)-1]
			for i, unit := range probes {
				want := twinUnbuilt.Fork().EvalAgg(twin, unit, args)
				for how, got := range map[string][]float64{
					"unbuilt":    unbuilt.Fork().EvalAgg(def, unit, args),
					"seeded":     seeded.Fork().EvalAgg(def, unit, args),
					"built":      frozen.Fork().EvalAgg(def, unit, args),
					"twin built": frozen.Fork().EvalAgg(twin, unit, args),
				} {
					for c := range want {
						if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
							t.Fatalf("n=%d, %s probe %d, output %d: %s %v, scanned twin %v", n, pair[0], i, c, how, got[c], want[c])
						}
					}
				}
			}
		}
	}
}

// identityRows is shared by every read view's providers, which grow it
// from concurrent readers: whatever the interleaving, each caller gets
// exactly 0, 1, …, n−1, with no capacity to append into.
func TestIdentityRowsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 40; k++ {
				n := (k*37 + g*101) % 3000
				rows := identityRows(n)
				if len(rows) != n || cap(rows) != n {
					t.Errorf("identityRows(%d): len %d, cap %d", n, len(rows), cap(rows))
					return
				}
				for i, r := range rows {
					if r != i {
						t.Errorf("identityRows(%d)[%d] = %d", n, i, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// An unbuilt provider never batches: it has no sweep orderings, and its
// per-probe path already is the scan a sweep would replace.
func TestUnbuiltNeverBatches(t *testing.T) {
	prog := compile(t, kitchenSinkScript)
	an := NewAnalyzer(prog, categoricals())
	env := randomArmy(t, 5, 60, 20)
	def := prog.Script.Agg("WeakestEnemyInRange")
	frozen, unbuilt := NewIndexed(an, env, rng.New(5).Tick(1)), NewIndexed(an, env, rng.New(5).Tick(1))
	frozen.Freeze()
	unbuilt.FreezeUnbuilt(def)
	if !frozen.BatchBeneficial(def) || unbuilt.BatchBeneficial(def) {
		t.Fatalf("BatchBeneficial: frozen %v (want true), unbuilt %v (want false)",
			frozen.BatchBeneficial(def), unbuilt.BatchBeneficial(def))
	}
	mustPanic(t, fmt.Sprintf("probing %s on a fork frozen around another definition", "NearestEnemy"), func() {
		unbuilt.Fork().EvalAgg(prog.Script.Agg("NearestEnemy"), env.Rows[0], nil)
	})
}
