// Package segtree implements the dynamic interval aggregate index used by
// the sweep-line technique of paper Section 5.3.1: a segment tree over a
// fixed x-ordering of units supporting O(log n) point updates ("percolate
// any changed leaf values up the tree") and O(log n) range MIN/MAX queries.
//
// Leaves carry a value plus a satellite payload (the unit key), so queries
// answer both "what is the minimum health in range" and "whose is it" —
// the arg-min needed for scripts like FireAt(getWeakestEnemy(u).key).
package segtree

import "math"

// Op selects whether the tree aggregates by minimum or maximum.
type Op uint8

// The two supported aggregates. MIN and MAX are exactly the non-divisible
// aggregates for which the paper introduces the sweep line.
const (
	Min Op = iota
	Max
)

// NoKey is the payload reported for identity (empty) ranges.
const NoKey int64 = -1

// Tree is a segment tree over positions 0..n-1, n fixed between Resizes.
// The zero value is not usable; construct with New. Not safe for
// concurrent mutation.
type Tree struct {
	op   Op
	n    int
	size int // number of leaves, power of two ≥ n
	val  []float64
	key  []int64
	id   float64
}

// Identity returns op's identity value: +∞ for Min, −∞ for Max.
func Identity(op Op) float64 {
	if op == Min {
		return math.Inf(1)
	}
	return math.Inf(-1)
}

// New returns a tree of n leaves, all initialized to the identity with
// payload NoKey — the "default value" annotation of the paper's sweep
// description.
func New(n int, op Op) *Tree {
	t := &Tree{op: op, id: Identity(op)}
	t.Resize(n) // a tree with no storage is clean: Resize allocates it at the identity
	return t
}

// Resize re-dimensions a clean tree — every position at the identity, as
// a tree is once each position that was set has been cleared — to n
// leaves, leaving it clean: O(1) unless the storage must grow. A sweep
// caller clears what it set and reuses one tree across sweeps over point
// sets of any size, paying neither an allocation nor an O(n) reset per
// sweep.
func (t *Tree) Resize(n int) {
	if n < 0 {
		panic("segtree: negative size")
	}
	size := 1
	for size < n {
		size *= 2
	}
	t.n, t.size = n, size
	if cap(t.val) < 2*size {
		t.val, t.key = make([]float64, 2*size), make([]int64, 2*size)
		t.fill()
	}
	t.val, t.key = t.val[:2*size], t.key[:2*size]
}

// fill sets every entry of the storage to the identity.
func (t *Tree) fill() {
	for i := range t.val {
		t.val[i] = t.id
		t.key[i] = NoKey
	}
}

// Len returns the number of leaf positions.
func (t *Tree) Len() int { return t.n }

// better reports whether (v1,k1) beats (v2,k2) under the tree's op. Ties
// break toward the smaller key so results are deterministic regardless of
// evaluation order — both engines must pick the same "weakest unit".
func (t *Tree) better(v1 float64, k1 int64, v2 float64, k2 int64) bool {
	if v1 != v2 {
		if t.op == Min {
			return v1 < v2
		}
		return v1 > v2
	}
	if k1 == NoKey {
		return false
	}
	if k2 == NoKey {
		return true
	}
	return k1 < k2
}

// Set writes (value, key) at position i and percolates the change to the
// root in O(log n).
func (t *Tree) Set(i int, value float64, key int64) {
	if i < 0 || i >= t.n {
		panic("segtree: Set out of range")
	}
	p := t.size + i
	t.val[p], t.key[p] = value, key
	for p >>= 1; p >= 1; p >>= 1 {
		c := 2 * p
		if !t.better(t.val[c], t.key[c], t.val[c+1], t.key[c+1]) {
			c++
		}
		if t.val[p] == t.val[c] && t.key[p] == t.key[c] {
			return // this node keeps its winner, so every ancestor keeps its own
		}
		t.val[p], t.key[p] = t.val[c], t.key[c]
	}
}

// Clear resets position i to the identity — the sweep line's "replace the
// actual value with the default value" when a unit exits the sweep region.
func (t *Tree) Clear(i int) { t.Set(i, t.id, NoKey) }

// Query returns the aggregate value and arg-key over positions [lo, hi).
// An empty or out-of-bounds-clamped-to-empty interval yields the identity
// and NoKey.
func (t *Tree) Query(lo, hi int) (float64, int64) {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	bv, bk := t.id, NoKey
	if lo >= hi {
		return bv, bk
	}
	l, r := lo+t.size, hi+t.size
	for l < r {
		if l&1 == 1 {
			if t.better(t.val[l], t.key[l], bv, bk) {
				bv, bk = t.val[l], t.key[l]
			}
			l++
		}
		if r&1 == 1 {
			r--
			if t.better(t.val[r], t.key[r], bv, bk) {
				bv, bk = t.val[r], t.key[r]
			}
		}
		l >>= 1
		r >>= 1
	}
	return bv, bk
}
