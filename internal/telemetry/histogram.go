// Package telemetry is the simulator's time-resolved observability
// layer. Where internal/metrics answers "how many, in total", telemetry
// answers "when": an epoch Sampler snapshots run gauges (per-PE resident
// tasks, queue depths, token levels, ...) into a bounded columnar ring
// buffer, and log-bucketed Histograms capture full latency/size
// distributions (task lifetime, queue wait, memory access latency,
// split-transfer size) instead of ad-hoc percentile reservoirs.
//
// Everything here is designed around two constraints:
//
//   - Off is free. A disabled sampler schedules no events and a nil
//     *Histogram's Observe is a nil-check no-op, so the simulation hot
//     path pays nothing when telemetry is not requested.
//   - On is live. Histograms use atomic counters and the Sampler is
//     mutex-guarded, so the -http inspection server can read consistent
//     snapshots from another goroutine while the (single-threaded)
//     simulation keeps writing. One thing lags: a constant-valued event
//     the simulator already counts (a cache hit's fixed latency) is
//     folded in with ObserveN at each sampler epoch and at run end, not
//     observed one by one, so a live reader sees it up to one epoch
//     late. Digests read after the run are exact.
//
// The package depends only on the standard library; values are plain
// int64 (the simulator's cycle type aliases int64).
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: values below 2^subBits get exact singleton
// buckets; each further power-of-two range is split into 2^subBits
// sub-buckets, bounding the relative quantile error at 2^-subBits
// (~3.1%). The geometry is a package constant, so any two Histograms are
// mergeable and merged counts are bit-identical to single-stream counts.
const (
	subBits  = 5
	subCount = 1 << subBits
	// numBuckets covers every non-negative int64: singleton buckets for
	// [0, 2^subBits) plus subCount sub-buckets per exponent 5..62.
	numBuckets = (64 - subBits) << subBits
)

// Histogram is a mergeable HDR-style histogram over non-negative int64
// observations (negative values are clamped to zero). The zero value is
// not usable; call NewHistogram. All methods are safe for one writer and
// any number of concurrent readers; a nil receiver ignores writes and
// reports an empty distribution.
type Histogram struct {
	counts [numBuckets]int64 // atomic
	count  int64             // atomic
	sum    int64             // atomic
	min    int64             // atomic; math.MaxInt64 when empty
	max    int64             // atomic
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min = math.MaxInt64
	return h
}

// bucketIdx maps a value to its bucket.
func bucketIdx(v int64) int {
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	sub := int((uint64(v) >> uint(exp-subBits)) & (subCount - 1))
	return ((exp - subBits + 1) << subBits) + sub
}

// bucketLo returns the smallest value mapping to bucket idx. Buckets
// below subCount hold exactly one value, so for them lo IS the value.
func bucketLo(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	g := idx >> subBits
	sub := idx & (subCount - 1)
	exp := uint(g + subBits - 1)
	return int64(1)<<exp | int64(sub)<<(exp-subBits)
}

// Observe records one value. Safe on a nil receiver (no-op) — telemetry
// hooks sit on simulator hot paths guarded only by this nil check, so
// Observe stays small enough to inline and a nil histogram costs no call.
func (h *Histogram) Observe(v int64) {
	if h != nil {
		h.observe(v, 1)
	}
}

// ObserveN records n observations of the same value in one step; the
// histogram ends bit-identical to n Observe(v) calls. Nil-safe, and
// n <= 0 records nothing. It lets a writer count a constant-valued event
// (a cache hit's fixed latency) with a plain counter and fold the count
// in later.
func (h *Histogram) ObserveN(v, n int64) {
	if h != nil && n > 0 {
		h.observe(v, n)
	}
}

func (h *Histogram) observe(v, n int64) {
	if v < 0 {
		v = 0
	}
	atomic.AddInt64(&h.counts[bucketIdx(v)], n)
	atomic.AddInt64(&h.count, n)
	atomic.AddInt64(&h.sum, v*n)
	for {
		old := atomic.LoadInt64(&h.min)
		if v >= old || atomic.CompareAndSwapInt64(&h.min, old, v) {
			break
		}
	}
	for {
		old := atomic.LoadInt64(&h.max)
		if v <= old || atomic.CompareAndSwapInt64(&h.max, old, v) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// Sum reports the exact sum of observations (after negative clamping).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.sum)
}

// Min reports the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	if atomic.LoadInt64(&h.count) == 0 {
		return 0
	}
	return atomic.LoadInt64(&h.min)
}

// Max reports the largest observation (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.max)
}

// Avg reports the exact mean (sum is tracked exactly, not re-derived
// from buckets).
func (h *Histogram) Avg() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile returns the q-quantile (q in [0,1]) as the lower bound of the
// bucket holding the rank-(floor(q·n)+1) observation — the same sample
// convention the trace package's sorted-slice percentiles used, so
// distributions of small values (< 2^subBits, where buckets are
// singletons) reproduce those percentiles exactly.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(q*float64(n)) + 1
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range h.counts {
		cum += atomic.LoadInt64(&h.counts[i])
		if cum >= rank {
			return bucketLo(i)
		}
	}
	return h.Max()
}

// Merge adds o's observations into h. Because every histogram shares one
// bucket geometry, merging per-shard histograms is bit-identical to
// observing the union stream into one histogram (counts, sum, min, max
// and therefore every quantile agree exactly).
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.counts {
		if c := atomic.LoadInt64(&o.counts[i]); c != 0 {
			atomic.AddInt64(&h.counts[i], c)
		}
	}
	oc := atomic.LoadInt64(&o.count)
	if oc == 0 {
		return
	}
	atomic.AddInt64(&h.count, oc)
	atomic.AddInt64(&h.sum, atomic.LoadInt64(&o.sum))
	for {
		om, hm := atomic.LoadInt64(&o.min), atomic.LoadInt64(&h.min)
		if om >= hm || atomic.CompareAndSwapInt64(&h.min, hm, om) {
			break
		}
	}
	for {
		om, hm := atomic.LoadInt64(&o.max), atomic.LoadInt64(&h.max)
		if om <= hm || atomic.CompareAndSwapInt64(&h.max, hm, om) {
			break
		}
	}
}

// Equal reports whether two histograms hold bit-identical state: every
// bucket count, the total count and the exact sum (the merged-shards
// conformance check).
func (h *Histogram) Equal(o *Histogram) bool {
	if h == nil || o == nil {
		return h.Count() == 0 && o.Count() == 0
	}
	if h.Count() != o.Count() || h.Sum() != o.Sum() {
		return false
	}
	for i := range h.counts {
		if atomic.LoadInt64(&h.counts[i]) != atomic.LoadInt64(&o.counts[i]) {
			return false
		}
	}
	return true
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	Lo    int64 `json:"lo"` // smallest value mapping into the bucket
	Count int64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i := range h.counts {
		if c := atomic.LoadInt64(&h.counts[i]); c != 0 {
			out = append(out, Bucket{Lo: bucketLo(i), Count: c})
		}
	}
	return out
}

// CumBucket is one step of a histogram's cumulative distribution.
type CumBucket struct {
	// Upper is the bucket's exclusive upper edge. Observations are
	// integers strictly below it, so it also serves as an inclusive
	// "less than or equal" bound (Prometheus `le`).
	Upper int64
	// Count is the cumulative number of observations below Upper.
	Count int64
}

// Cumulative returns the non-empty buckets as a cumulative distribution
// in ascending order — the shape a Prometheus-style exposition needs.
// The final entry's Count equals the total at read time. Nil-safe.
func (h *Histogram) Cumulative() []CumBucket {
	if h == nil {
		return nil
	}
	var out []CumBucket
	var cum int64
	for i := range h.counts {
		if c := atomic.LoadInt64(&h.counts[i]); c != 0 {
			cum += c
			upper := int64(math.MaxInt64)
			if i+1 < numBuckets {
				upper = bucketLo(i + 1)
			}
			out = append(out, CumBucket{Upper: upper, Count: cum})
		}
	}
	return out
}

// HistSummary is a JSON-exportable digest of a histogram.
type HistSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Avg   float64 `json:"avg"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Summary digests the histogram (nil-safe: an empty summary).
func (h *Histogram) Summary() HistSummary {
	return HistSummary{
		Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
		Avg: h.Avg(), P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
	}
}

// Summaries renders named digests as the summaries a live inspection
// server or a JSON snapshot serves.
func Summaries(digests map[string]*Histogram) map[string]HistSummary {
	out := make(map[string]HistSummary, len(digests))
	for name, h := range digests {
		out[name] = h.Summary()
	}
	return out
}

// String renders a compact one-line digest.
func (h *Histogram) String() string {
	s := h.Summary()
	return fmt.Sprintf("n=%d avg=%.1f min=%d p50=%d p90=%d p99=%d max=%d",
		s.Count, s.Avg, s.Min, s.P50, s.P90, s.P99, s.Max)
}
