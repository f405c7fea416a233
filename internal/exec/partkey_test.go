package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
)

// formattedPartitionKey is the partition key this package used before the
// fixed-width one: every column rendered with %g. Kept here as the
// reference the new key's partition classes are held against.
func formattedPartitionKey(row []float64, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		fmt.Fprintf(&b, "%g|", row[c])
	}
	return b.String()
}

// The fixed-width key must induce exactly the partition classes %g did:
// two rows share a new key iff they shared an old one — for ordinary
// values, ±0 (distinct under both), ±Inf, subnormals, huge and tiny
// magnitudes, and NaN of any payload (one class under both).
func TestPartitionKeyMatchesFormatter(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 0.5, 1e-320, -1e-320, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		1e21, 1e20, 123456789, 0.1, 0.1 + 0.2, 0.3, 1 << 53, 1<<53 + 2,
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
	}
	st := rng.NewStream(rng.New(7), 3)
	var rows [][]float64
	for i := 0; i < 400; i++ {
		row := make([]float64, 3)
		for c := range row {
			switch st.Intn(3) {
			case 0:
				row[c] = specials[st.Intn(len(specials))]
			case 1:
				row[c] = float64(st.Intn(4)) // categorical-looking small ints: many collisions
			default:
				row[c] = math.Float64frombits(uint64(st.Intn(1<<30))<<34 | uint64(st.Intn(1<<30)))
			}
		}
		rows = append(rows, row)
	}
	for _, cols := range [][]int{{}, {0}, {2}, {0, 1}, {2, 0, 1}} {
		for i, a := range rows {
			ka := string(appendPartitionKey(nil, a, cols))
			if len(ka) != 8*len(cols) {
				t.Fatalf("key over %d columns is %d bytes, want fixed width %d", len(cols), len(ka), 8*len(cols))
			}
			for _, b := range rows[i:] {
				kb := string(appendPartitionKey(nil, b, cols))
				oldSame := formattedPartitionKey(a, cols) == formattedPartitionKey(b, cols)
				if (ka == kb) != oldSame {
					t.Fatalf("cols %v: rows %v and %v: fixed-width keys equal=%v, %%g keys equal=%v", cols, a, b, ka == kb, oldSame)
				}
			}
		}
	}
	// A lookup by key must not allocate: the key is built in view scratch
	// and string(key) as a map index is free.
	p := &Indexed{scratch: scratch{keyBuf: make([]byte, 0, 64)}}
	m := map[string]int{string(appendPartitionKey(nil, rows[0], []int{0, 1})): 1}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = m[string(p.partitionKey(rows[0], []int{0, 1}))]
	}); allocs != 0 {
		t.Fatalf("partition key lookup allocates %v times per call, want 0", allocs)
	}
}

// A probe-invariant definition (no range axes, no u-only conjuncts, no
// parameters, outputs served from per-partition state) is answered once
// per matched partition set: every later probe of the same view copies
// the memoised answer, which must equal — bit for bit — what a view
// without the memo computes, and costs no tree probe.
func TestProbeInvariantMemo(t *testing.T) {
	const src = `
aggregate OwnLine(u) :=
  count(*) as n, avg(e.posx) as cx, stddev(e.posx) as sx, max(e.health) as top
  over e where e.player = u.player and e.unittype = 0;
aggregate Ranged(u) :=
  count(*) as n
  over e where e.posx >= u.posx - 4 and e.posx <= u.posx + 4 and e.player = u.player;
aggregate Scaled(u, k) :=
  sum(e.health * k) as s
  over e where e.player = u.player;
aggregate Near(u) :=
  nearestkey() as key
  over e where e.player = u.player;
action Tag(u, v) := on e where e.key = u.key set damage = v;
function main(u) { perform Tag(u, OwnLine(u).n + Ranged(u) + Scaled(u, 2) + Near(u)) }`
	prog := compile(t, src)
	an := NewAnalyzer(prog, categoricals())
	for name, want := range map[string]bool{"OwnLine": true, "Ranged": false, "Scaled": false, "Near": false} {
		if got := an.Agg(prog.Script.Agg(name)).ProbeInvariant; got != want {
			t.Errorf("%s: ProbeInvariant = %v, want %v", name, got, want)
		}
	}

	env := randomArmy(t, 5, 200, 40)
	r := rng.New(5).Tick(1)
	def := prog.Script.Agg("OwnLine")
	memo := NewIndexed(an, env, r)
	for i, unit := range env.Rows {
		// The reference is a fresh view per probe: its memo is always empty.
		want := NewIndexed(an, env, r).EvalAgg(def, unit, nil)
		got := memo.EvalAgg(def, unit, nil)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("unit %d output %d: memoised %v, direct %v", i, c, got[c], want[c])
			}
		}
	}
	// Two players ⇒ two partition sets ⇒ two computed answers; the other
	// 198 probes touch no tree.
	if memo.Stats.TreeProbes != 2 {
		t.Fatalf("TreeProbes = %d over %d probes, want 2 (one per player)", memo.Stats.TreeProbes, env.Len())
	}
	// A fork starts with an empty memo of its own.
	memo.Freeze()
	fork := memo.Fork()
	fork.EvalAgg(def, env.Rows[0], nil)
	if fork.Stats.TreeProbes != 1 {
		t.Fatalf("fork TreeProbes = %d after one probe, want 1 (memo not shared)", fork.Stats.TreeProbes)
	}
}
