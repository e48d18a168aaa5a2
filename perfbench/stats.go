package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples a timing tail must leave above it, so it
// is never read off a handful of outliers.
const minBeyond = 10

// maxTail caps the tail percentile. Higher percentiles of a few hundred
// requests follow the shared host's stalls more than the program: p97
// spread by a third between runs of the same code, p90 much less.
const maxTail = 90

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the sum of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns Q1, Q2 and Q3 of xs with the same interpolation as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// benchmark's own spread matches the one computed over its runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tailPercentile is the highest percentile of n samples, up to maxTail,
// that leaves minBeyond samples above it: the (n-minBeyond)-th smallest
// sample below 100 samples, p90 from there. Below 2×minBeyond samples
// that would fall under the median, which stands in.
func tailPercentile(n int) float64 {
	if n < 2*minBeyond {
		return 50
	}
	return min(maxTail, 100*float64(n-minBeyond)/float64(n))
}

// rank is the 1-based nearest rank of the p-th percentile among n
// samples. The tolerance keeps products such as 99.9% of 10000 from
// rounding up past an exact rank.
func rank(p float64, n int) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the sample at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[rank(p, len(xs))-1]
}

// tally counts operations attempted and failed. An operation fails when
// it errors, answers with a non-2xx status, returns a wrong embedding
// count or drifts from a pinned simulated statistic; the first few
// failure reasons are kept for the report.
type tally struct {
	attempted, failed int
	reasons           []string
}

const keepReasons = 5

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if len(t.reasons) < keepReasons {
		t.reasons = append(t.reasons, reason)
	}
}

// errorRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
