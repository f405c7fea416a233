package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// addOne is the per-row reference AddRows must be observationally
// identical to: a sorted insert that ORs into an existing entry.
func addOne(d *Delta, row int, mask uint64) {
	i := sort.SearchInts(d.Dirty, row)
	if i < len(d.Dirty) && d.Dirty[i] == row {
		d.Masks[i] |= mask
		return
	}
	d.Dirty = append(d.Dirty[:i], append([]int{row}, d.Dirty[i:]...)...)
	d.Masks = append(d.Masks[:i], append([]uint64{mask}, d.Masks[i:]...)...)
}

// AddRows must be observationally identical to a per-row insert loop —
// it exists only to replace that loop's tail shift per insert with one
// in-place merge from the back for the command batches the engine feeds
// it, including the sharded admission path's bulk ones.
func TestDeltaAddRowsMatchesAddLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		var ref, bulk Delta
		// Seed both with the same random pre-existing dirty set.
		pre := r.Intn(20)
		for k := 0; k < pre; k++ {
			row, mask := r.Intn(60), uint64(1)<<uint(r.Intn(8))
			addOne(&ref, row, mask)
			addOne(&bulk, row, mask)
		}
		var storage *int
		if trial%2 == 1 {
			// Spare capacity: the merge must run in place, not reallocate.
			bulk.Dirty = append(make([]int, 0, 100), bulk.Dirty...)
			bulk.Masks = append(make([]uint64, 0, 100), bulk.Masks...)
			storage = &bulk.Dirty[:1][0]
		}
		// Build a sorted duplicate-free batch, sometimes overlapping the
		// pre-existing rows, sometimes disjoint, sometimes empty, with a
		// mask per row.
		seen := map[int]bool{}
		var rows []int
		for k := r.Intn(25); k > 0; k-- {
			row := r.Intn(60)
			if !seen[row] {
				seen[row] = true
				rows = append(rows, row)
			}
		}
		sort.Ints(rows)
		masks := make([]uint64, len(rows))
		for k, row := range rows {
			masks[k] = uint64(1) << uint(r.Intn(8))
			addOne(&ref, row, masks[k])
		}
		bulk.AddRows(rows, masks)

		if len(ref.Dirty) != len(bulk.Dirty) {
			t.Fatalf("trial %d: %d dirty rows via the insert loop, %d via AddRows", trial, len(ref.Dirty), len(bulk.Dirty))
		}
		for i := range ref.Dirty {
			if ref.Dirty[i] != bulk.Dirty[i] || ref.Masks[i] != bulk.Masks[i] {
				t.Fatalf("trial %d: entry %d = (%d, %#x) via the insert loop, (%d, %#x) via AddRows",
					trial, i, ref.Dirty[i], ref.Masks[i], bulk.Dirty[i], bulk.Masks[i])
			}
		}
		if storage != nil && &bulk.Dirty[:1][0] != storage {
			t.Fatalf("trial %d: AddRows reallocated a delta with room for the batch", trial)
		}
	}
}

// On a schema wider than a mask, ColBit folds columns 63 and up into one
// bit, and that aliasing must stay conservative: a change to any wide
// column is a change to every wide column a read set names, so an answer
// reading c68 is touched by an edit of c65 (which it does not read) — an
// extra rederivation, never a missed one — while an edit of a narrow
// column it does not read leaves it untouched.
func TestColBitAliasingIsConservative(t *testing.T) {
	attrs := []table.Attr{{Name: "key", Kind: table.Const}, {Name: "posx", Kind: table.Const}, {Name: "posy", Kind: table.Const}}
	for c := len(attrs); c < 70; c++ {
		attrs = append(attrs, table.Attr{Name: fmt.Sprintf("c%d", c), Kind: table.Const})
	}
	schema := table.MustSchema(attrs...)
	script, err := parser.Parse(`aggregate A(u) := sum(e.c68) as s over e where e.c5 > 0;`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := sem.CheckQuery(script, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ColBit(63) != 1<<63 || ColBit(64) != ColBit(63) || ColBit(69) != ColBit(63) || ColBit(62) != 1<<62 {
		t.Fatalf("ColBit(62..69) = %#x %#x %#x %#x", ColBit(62), ColBit(63), ColBit(64), ColBit(69))
	}
	plan := NewAnswerPlan(prog, script.Aggs[0])
	for _, c := range []struct {
		col  int
		want bool
	}{
		{68, true},  // read
		{5, true},   // read by the filter
		{65, true},  // not read, but aliased with c68: conservatively touched
		{63, true},  // likewise
		{2, false},  // not read, not aliased
		{62, false}, // the last column with a bit of its own
	} {
		d := Delta{Dirty: []int{0}, Masks: []uint64{ColBit(c.col)}}
		if got := plan.Touched(d); got != c.want {
			t.Errorf("a change to c%d: Touched = %v, want %v", c.col, got, c.want)
		}
		if got := plan.RelevantDirty(d) == 1; got != c.want {
			t.Errorf("a change to c%d: RelevantDirty counts it = %v, want %v", c.col, got, c.want)
		}
	}
}
