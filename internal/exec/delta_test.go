package exec

import (
	"fmt"
	"testing"

	"github.com/epicscale/sgl/internal/sgl/parser"
	"github.com/epicscale/sgl/internal/sgl/sem"
	"github.com/epicscale/sgl/internal/table"
)

// On a schema wider than a mask, ColBit folds columns 63 and up into one
// bit, and that aliasing must stay conservative: a change to any wide
// column is a change to every wide column a read set names, so a
// definition reading c68 counts an edit of c65 (which it does not read)
// as relevant churn — an extra rebuild, never a missed one — while an
// edit of a narrow column it does not read does not count.
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
	read := (&Analyzer{prog: prog}).reads(script.Aggs[0]).e
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
		if got := relevantDirty(d, read) == 1; got != c.want {
			t.Errorf("a change to c%d: relevantDirty counts it = %v, want %v", c.col, got, c.want)
		}
	}
}
