// Package rng implements the deterministic random source required by SGL's
// semantics (paper Section 4.1/4.3).
//
// SGL scripts call Random(i) with an integer seed i. Within a single clock
// tick the same unit asking for the same i must always observe the same
// value — the semantics function ρ : E → N → N^c is fixed for the duration
// of a tick — but values differ between ticks, between units, and between
// seeds. This makes script evaluation a pure function of (E, ρ), which in
// turn is what lets the optimizer reorder and share computation without
// changing game outcomes: the naive and indexed evaluators see exactly the
// same random stream.
//
// The implementation is a counter-based generator: a SplitMix64-style hash
// of (run seed, tick, unit key, i). It is not cryptographic; it only needs
// to be fast, stateless, and well distributed.
package rng

// Source generates the per-tick random values for a whole simulation run.
// The zero value is a valid source with seed 0. Source is stateless and
// safe for concurrent use.
type Source struct {
	seed uint64
}

// New returns a Source for the given run seed. Two runs with the same seed
// and the same initial environment are identical tick-for-tick.
func New(seed uint64) Source { return Source{seed: seed} }

// Seed returns the run seed.
func (s Source) Seed() uint64 { return s.seed }

// mix64 is the SplitMix64 finalizer: a bijective avalanche function on
// 64-bit words.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// At returns the raw 64-bit random word for (tick, unit key, i). It is the
// realization of the paper's ρ(u)(i) for the given tick.
func (s Source) At(tick int64, key int64, i int64) uint64 {
	h := s.seed
	h = mix64(h ^ uint64(tick)*0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(key)*0xc2b2ae3d27d4eb4f)
	h = mix64(h ^ uint64(i)*0x165667b19e3779f9)
	return h
}

// Uint64 returns a uniformly distributed 64-bit value for (tick, key, i).
func (s Source) Uint64(tick, key, i int64) uint64 { return s.At(tick, key, i) }

// Intn returns a value in [0, n) for (tick, key, i). It panics if n <= 0.
func (s Source) Intn(tick, key, i int64, n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift reduction; bias is negligible for game-sized n.
	hi, _ := mul64(s.At(tick, key, i), uint64(n))
	return int(hi)
}

// Float64 returns a value in [0, 1) for (tick, key, i).
func (s Source) Float64(tick, key, i int64) float64 {
	return float64(s.At(tick, key, i)>>11) / (1 << 53)
}

// Tick binds a Source to a specific clock tick, yielding the function ρ the
// SGL semantics passes to every script during that tick.
func (s Source) Tick(tick int64) TickSource { return TickSource{src: s, tick: tick} }

// TickSource is the per-tick view of a Source: the ρ of the paper's
// semantics definition. It is immutable and safe for concurrent use.
type TickSource struct {
	src  Source
	tick int64
}

// Tick returns the tick this source is bound to.
func (t TickSource) Tick() int64 { return t.tick }

// Random is SGL's Random(i) builtin for the unit with the given key: a
// non-negative value that is stable within the tick. The result is bounded
// to 31 bits so scripts doing arithmetic on it stay within exact float64
// integer range.
func (t TickSource) Random(key, i int64) int64 {
	return int64(t.src.At(t.tick, key, i) >> 33)
}

// Intn returns a value in [0, n) for the unit with the given key.
func (t TickSource) Intn(key, i int64, n int) int { return t.src.Intn(t.tick, key, i, n) }

// Float64 returns a value in [0,1) for the unit with the given key.
func (t TickSource) Float64(key, i int64) float64 { return t.src.Float64(t.tick, key, i) }

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	d := t & mask32
	e := t >> 32
	t = aLo*bHi + d
	lo |= (t & mask32) << 32
	hi = aHi*bHi + e + t>>32
	return hi, lo
}

// Stream is a convenience sequential generator seeded from a Source
// position, used by workload generators (initial unit placement) rather
// than by script semantics. It is not safe for concurrent use.
type Stream struct {
	state uint64
}

// NewStream returns a sequential generator whose stream is determined by
// the source seed and a purpose label index.
func NewStream(s Source, purpose int64) *Stream {
	return &Stream{state: mix64(s.seed ^ uint64(purpose)*0x9e3779b97f4a7c15)}
}

// Substream returns an independent sequential generator deterministically
// derived from the source seed, a purpose label, and a stream index — a
// unit key, a worker shard, or any other partition identifier. Distinct
// (purpose, index) pairs yield statistically independent streams, and the
// derivation does not depend on how many other substreams exist or in what
// order they are created. This is the property the parallel engine relies
// on: a consumer keyed by (tick, unit) draws exactly the same values
// whether one worker or eight are running, so results stay bit-identical
// at any worker count.
func (s Source) Substream(purpose, index int64) *Stream {
	h := mix64(s.seed ^ uint64(purpose)*0x9e3779b97f4a7c15)
	return &Stream{state: mix64(h ^ uint64(index)*0xc2b2ae3d27d4eb4f)}
}

// Next returns the next 64-bit value in the stream.
func (st *Stream) Next() uint64 {
	st.state += 0x9e3779b97f4a7c15
	return mix64(st.state)
}

// Intn returns the next value reduced to [0, n). It panics if n <= 0.
func (st *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	hi, _ := mul64(st.Next(), uint64(n))
	return int(hi)
}

// Float64 returns the next value in [0, 1).
func (st *Stream) Float64() float64 {
	return float64(st.Next()>>11) / (1 << 53)
}

// Perm fills p with a pseudo-random permutation of [0, len(p)), used by
// the movement phase ("this is done in random order"). The caller owns p,
// so a tick can keep it.
func (st *Stream) Perm(p []int) {
	for i := range p {
		j := st.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}
