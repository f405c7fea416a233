package main

import (
	"math"
	"sort"
)

// tailCandidates are the tails a timing may be reported at beyond the
// median, as "one sample in k lies beyond": p90, p95, p99, p99.9, p99.99.
var tailCandidates = []int{10, 20, 100, 1000, 10000}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it in a sample of n, so the reported tail is a
// measured value and not one outlier. It returns 0 when even p90 is not
// supported (n < 100): the sample has a median and nothing else.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, k := range tailCandidates {
		if n/k >= 10 {
			best = 100 - 100/float64(k)
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of an ascending
// sample; NaN for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of xs (mean of the two middles for an even
// count) without disturbing the caller's order; NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// dist summarizes one timing sample the way every report line needs it:
// median, p90 (the gated tail: the highest percentile every workload's
// sample supports), p99, and the highest percentile this sample supports
// with its value.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

// summarize sorts xs in place and builds its dist.
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: percentile(xs, 50), P90: percentile(xs, 90), P99: percentile(xs, 99)}
	d.TailPct = tailPercentile(len(xs))
	if d.TailPct > 0 {
		d.Tail = percentile(xs, d.TailPct)
	} else {
		d.TailPct, d.Tail = 50, d.P50
	}
	return d
}

// spread is the interquartile distance of xs as a share of its median —
// the run-to-run steadiness figure the bounds are sized against. It
// follows Python's statistics.quantiles(xs, n=4) (exclusive method) so
// the figure matches the one the acceptance driver computes.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs((q(3) - q(1)) / m)
}
