// Package ordmap is a flat open-addressing table from int64 keys to int32
// ordinals: a unit's key to its row, an occupied grid square to the row
// holding it. It is what the tick looks a row up by instead of a Go map.
//
// One slab of (key, ordinal) slots, linear probing, a fixed hash (the
// murmur3 finalizer): the layout is a function of the insertion history
// alone, so two tables fed the same operations are identical, and a
// lookup costs a few multiplies and, at the load the table keeps (at
// most one half), about one and a half probes. A deletion shifts the entries after it back
// instead of leaving a tombstone, so a table that sees as many deletions
// as insertions never degrades and never needs a rehash. Reset empties
// the table in place; a table of steady size allocates nothing.
//
// The empty-slot marker is a key value (Empty). That key is still a
// legal key: its entry lives beside the slab.
package ordmap

import "math"

// Empty is the key value that marks a free slot.
const Empty int64 = math.MinInt64

// minSlots is the smallest slab a table allocates.
const minSlots = 8

type slot struct {
	key int64
	val int32
}

// Map is an int64 → int32 table. The zero value is an empty table. A Map
// is not safe for concurrent writes; concurrent lookups are.
type Map struct {
	slots []slot // len is a power of two, or zero
	shift uint   // 64 − log2(len(slots))
	n     int    // entries in slots

	// The entry keyed Empty, which no slot can hold.
	hasEmpty bool
	emptyVal int32
}

// New returns a table sized to hold capacity entries without growing.
func New(capacity int) *Map {
	m := &Map{}
	m.alloc(slotsFor(capacity))
	return m
}

// slotsFor is the slab size that holds n entries at load ≤ 1/2.
func slotsFor(n int) int {
	s := minSlots
	for s < 2*n {
		s <<= 1
	}
	return s
}

func (m *Map) alloc(size int) {
	m.slots = make([]slot, size)
	for i := range m.slots {
		m.slots[i].key = Empty
	}
	m.shift = uint(64 - log2(size))
	m.n = 0
}

func log2(v int) int {
	k := 0
	for 1<<k < v {
		k++
	}
	return k
}

// home is the slot a key's probe sequence starts at: the top bits of
// the key run through murmur3's 64-bit finalizer. A bare multiplicative
// hash maps a packed coordinate pair (x·2^32 + y) to a linear form in x
// and y, under which a dense rectangle of squares piles into long probe
// runs; the xor-shifts fold the high word into the low before each
// multiply.
func (m *Map) home(key int64) int {
	h := uint64(key)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h >> m.shift)
}

// Len returns the number of entries.
func (m *Map) Len() int {
	if m.hasEmpty {
		return m.n + 1
	}
	return m.n
}

// Get returns the ordinal stored under key.
func (m *Map) Get(key int64) (int32, bool) {
	if key == Empty {
		return m.emptyVal, m.hasEmpty
	}
	if m.n == 0 {
		return 0, false
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == key {
			return s.val, true
		}
		if s.key == Empty {
			return 0, false
		}
	}
}

// Put stores val under key, replacing what the key held.
func (m *Map) Put(key int64, val int32) {
	if key == Empty {
		m.hasEmpty, m.emptyVal = true, val
		return
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := len(m.slots) - 1
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == key {
			s.val = val
			return
		}
		if s.key == Empty {
			s.key, s.val = key, val
			m.n++
			return
		}
	}
}

// grow doubles the slab (or allocates the first one) and reinserts every
// entry in slab order.
func (m *Map) grow() {
	old := m.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	m.alloc(size)
	for _, s := range old {
		if s.key != Empty {
			m.Put(s.key, s.val)
		}
	}
}

// Delete removes key's entry and reports whether there was one. The
// entries probing past the freed slot shift back into it, so every key
// stays reachable from its home without a tombstone.
func (m *Map) Delete(key int64) bool {
	if key == Empty {
		had := m.hasEmpty
		m.hasEmpty, m.emptyVal = false, 0
		return had
	}
	if m.n == 0 {
		return false
	}
	mask := len(m.slots) - 1
	i := m.home(key)
	for m.slots[i].key != key {
		if m.slots[i].key == Empty {
			return false
		}
		i = (i + 1) & mask
	}
	// Backward shift: walk the run after the hole; an entry may fill the
	// hole when its home does not lie cyclically in (hole, its slot].
	for j := (i + 1) & mask; m.slots[j].key != Empty; j = (j + 1) & mask {
		h := m.home(m.slots[j].key)
		if (j-h)&mask >= (j-i)&mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{key: Empty}
	m.n--
	return true
}

// Reset empties the table, keeping its slab.
func (m *Map) Reset() {
	if m.n > 0 {
		for i := range m.slots {
			m.slots[i] = slot{key: Empty}
		}
	}
	m.n = 0
	m.hasEmpty, m.emptyVal = false, 0
}

// CloseGap renumbers the ordinals after the removal of ordinal gone: every
// value above it drops by one, as row indexes do when a row is cut out of
// a table. It walks the whole slab.
func (m *Map) CloseGap(gone int32) {
	for i := range m.slots {
		if s := &m.slots[i]; s.key != Empty && s.val > gone {
			s.val--
		}
	}
	if m.hasEmpty && m.emptyVal > gone {
		m.emptyVal--
	}
}

// Clone returns an independent copy of the table.
func (m *Map) Clone() *Map {
	c := *m
	c.slots = append([]slot(nil), m.slots...)
	return &c
}
