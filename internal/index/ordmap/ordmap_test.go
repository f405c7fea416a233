package ordmap

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"github.com/epicscale/sgl/internal/rng"
)

// keyPool is the keys the property test and the fuzz target draw from:
// small row-like keys, keys up to 2^53, packed grid squares with negative
// and extreme coordinates, and the empty-slot marker itself.
var keyPool = func() []int64 {
	keys := []int64{0, 1, 2, 3, 7, 8, 9, 1 << 53, 1<<53 - 1, 1<<53 + 1, math.MaxInt64, Empty, Empty + 1, -1}
	for _, sq := range [][2]int32{{0, 0}, {-1, -1}, {-1, 0}, {0, -1}, {math.MinInt32, 0}, {math.MinInt32, math.MinInt32},
		{math.MaxInt32, math.MaxInt32}, {1 << 30, -(1 << 30)}, {5, 5}, {5, 6}, {6, 5}} {
		keys = append(keys, int64(uint64(uint32(sq[0]))<<32|uint64(uint32(sq[1]))))
	}
	for k := int64(100); k < 164; k++ {
		keys = append(keys, k, k<<20) // runs that collide on purpose
	}
	return keys
}()

// op applies one operation to the table and to a Go-map reference and
// fails on the first disagreement. val is the ordinal a write stores.
func op(t *testing.T, m *Map, ref map[int64]int32, code byte, key int64, val int32) {
	t.Helper()
	switch code % 6 {
	case 0, 1: // insert or overwrite
		m.Put(key, val)
		ref[key] = val
	case 2: // delete, backward shift
		_, want := ref[key]
		if got := m.Delete(key); got != want {
			t.Fatalf("Delete(%d) = %v, reference %v", key, got, want)
		}
		delete(ref, key)
	case 3: // move: the entry changes ordinal, as a unit changes row
		if _, ok := ref[key]; ok {
			m.Put(key, val)
			ref[key] = val
		}
	case 4: // close a gap, as a despawn renumbers rows
		m.CloseGap(val)
		//sgl:unordered each entry is renumbered on its own
		for k, v := range ref {
			if v > val {
				ref[k] = v - 1
			}
		}
	case 5:
		if val%17 == 0 { // rarely: reset, keeping the slab
			m.Reset()
			clear(ref)
		}
	}
	if got, want := m.Len(), len(ref); got != want {
		t.Fatalf("Len = %d, reference %d", got, want)
	}
}

// agree fails unless every pool key reads alike from the table and the
// reference.
func agree(t *testing.T, m *Map, ref map[int64]int32) {
	t.Helper()
	for _, k := range keyPool {
		got, gok := m.Get(k)
		want, wok := ref[k]
		if gok != wok || (gok && got != want) {
			t.Fatalf("Get(%d) = %d, %v; reference %d, %v", k, got, gok, want, wok)
		}
	}
}

// TestMapMatchesReference drives seeded random operations — inserts
// past every growth step, overwrites, deletions that shift runs back,
// gap closing, resets — against a Go map, over the key pool.
func TestMapMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		st := rng.NewStream(rng.New(seed), 1)
		m := &Map{}
		if seed%2 == 0 {
			m = New(int(seed))
		}
		ref := map[int64]int32{}
		for i := 0; i < 3000; i++ {
			key := keyPool[st.Intn(len(keyPool))]
			op(t, m, ref, byte(st.Intn(6)), key, int32(st.Intn(200)-20))
			if i%50 == 0 {
				agree(t, m, ref)
			}
		}
		agree(t, m, ref)
	}
}

// TestMapDeterministic: two tables fed the same operations hold the same
// slab, slot for slot, and a clone is independent of its original.
func TestMapDeterministic(t *testing.T) {
	a, b := New(4), New(4)
	for k := int64(0); k < 500; k++ {
		a.Put(k*7919, int32(k))
		b.Put(k*7919, int32(k))
	}
	for k := int64(0); k < 500; k += 3 {
		a.Delete(k * 7919)
		b.Delete(k * 7919)
	}
	if !slices.Equal(a.slots, b.slots) {
		t.Fatal("two tables fed the same operations differ")
	}
	c := a.Clone()
	c.Put(1, 1)
	c.Delete(7919)
	if _, ok := a.Get(1); ok {
		t.Fatal("a write to the clone reached the original")
	}
	if v, ok := a.Get(7919); !ok || v != 1 {
		t.Fatal("a delete on the clone reached the original")
	}
}

// TestMapSteadyStateAllocatesNothing: a table of steady size allocates
// nothing across fills, reads and deletions.
func TestMapSteadyStateAllocatesNothing(t *testing.T) {
	m := New(1024)
	allocs := testing.AllocsPerRun(20, func() {
		m.Reset()
		for k := int64(0); k < 1024; k++ {
			m.Put(k, int32(k))
		}
		for k := int64(0); k < 1024; k += 2 {
			m.Get(k)
			m.Delete(k)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per steady fill", allocs)
	}
}

// FuzzMapMatchesReference decodes the input as operations — one byte of
// opcode, one of key-pool index, one of ordinal — and holds the table to
// a Go map throughout.
func FuzzMapMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 11, 3, 2, 1, 0, 4, 0, 2, 2, 11, 0})
	f.Add([]byte{0, 13, 1, 2, 13, 0, 0, 14, 9, 3, 14, 2, 5, 0, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := &Map{}
		ref := map[int64]int32{}
		for len(data) >= 3 {
			key := keyPool[int(data[1])%len(keyPool)]
			if data[1] >= 200 { // any key at all
				key = int64(binary.LittleEndian.Uint16(data[1:3])) << (data[2] % 50)
			}
			op(t, m, ref, data[0], key, int32(data[2]%64))
			data = data[3:]
		}
		agree(t, m, ref)
	})
}
