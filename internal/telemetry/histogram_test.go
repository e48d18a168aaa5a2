package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBucketGeometry(t *testing.T) {
	// Singleton buckets below 2^subBits: lo is the value itself.
	for v := int64(0); v < subCount; v++ {
		if got := bucketIdx(v); got != int(v) {
			t.Fatalf("bucketIdx(%d) = %d", v, got)
		}
		if got := bucketLo(int(v)); got != v {
			t.Fatalf("bucketLo(%d) = %d", v, got)
		}
	}
	// Monotone, contiguous, and lo(idx(v)) <= v for representative values.
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 100, 1 << 10, 1<<10 + 7, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		idx := bucketIdx(v)
		if idx < prev {
			t.Fatalf("bucketIdx not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if lo := bucketLo(idx); lo > v {
			t.Fatalf("bucketLo(%d)=%d > value %d", idx, lo, v)
		}
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
	}
	// Every value maps into a bucket whose next bucket's lo exceeds it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := rng.Int63()
		idx := bucketIdx(v)
		if bucketLo(idx) > v {
			t.Fatalf("lo(%d)=%d > %d", idx, bucketLo(idx), v)
		}
		if idx+1 < numBuckets && bucketLo(idx+1) <= v {
			t.Fatalf("value %d should be in bucket %d, but bucket %d starts at %d", v, idx, idx+1, bucketLo(idx+1))
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Min() != 0 || h.Max() != 0 || h.Avg() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram not zero: %s", h)
	}
	for _, v := range []int64{5, 3, 9, 3, -2} { // -2 clamps to 0
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 20 {
		t.Fatalf("sum = %d", h.Sum())
	}
	if h.Min() != 0 || h.Max() != 9 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	if h.Avg() != 4 {
		t.Fatalf("avg = %v", h.Avg())
	}
}

// TestQuantileMatchesSortedSliceConvention pins the quantile convention
// to the trace package's historical sorted[floor(q*n)] selection for
// small exact values — the property the Summary golden test depends on.
func TestQuantileMatchesSortedSliceConvention(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]int64, n)
		h := NewHistogram()
		for i := range vals {
			vals[i] = int64(rng.Intn(subCount)) // exact singleton buckets
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			idx := int(q * float64(n))
			if idx >= n {
				idx = n - 1
			}
			if got, want := h.Quantile(q), vals[idx]; got != want {
				t.Fatalf("n=%d q=%v: hist %d, sorted-slice %d", n, q, got, want)
			}
		}
	}
}

func TestQuantileApproximationBound(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(3))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = rng.Int63n(1 << 30)
		h.Observe(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := vals[int(q*float64(len(vals)))]
		got := h.Quantile(q)
		if got > exact {
			t.Fatalf("q=%v: histogram quantile %d above exact %d", q, got, exact)
		}
		// Lower bucket bound undershoots by at most one sub-bucket width.
		if relErr := float64(exact-got) / float64(exact); relErr > 1.0/subCount {
			t.Fatalf("q=%v: relative error %.4f exceeds %.4f (got %d, exact %d)",
				q, relErr, 1.0/subCount, got, exact)
		}
	}
}

// TestMergeBitIdentical is the shard-merge conformance property: merging
// per-shard histograms must be bit-identical to observing the union
// stream into one histogram.
func TestMergeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	global := NewHistogram()
	shards := make([]*Histogram, 8)
	for i := range shards {
		shards[i] = NewHistogram()
	}
	for i := 0; i < 20000; i++ {
		v := rng.Int63n(1 << 36)
		global.Observe(v)
		shards[rng.Intn(len(shards))].Observe(v)
	}
	merged := NewHistogram()
	for _, s := range shards {
		merged.Merge(s)
	}
	if !merged.Equal(global) {
		t.Fatalf("merged shards differ from global stream:\n merged: %s\n global: %s", merged, global)
	}
	if merged.Min() != global.Min() || merged.Max() != global.Max() {
		t.Fatalf("min/max differ: %d/%d vs %d/%d", merged.Min(), merged.Max(), global.Min(), global.Max())
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if merged.Quantile(q) != global.Quantile(q) {
			t.Fatalf("quantile %v differs", q)
		}
	}
}

// TestObserveNEqualsRepeatedObserve: ObserveN(v, n) leaves the same
// state as n Observe(v) calls, whatever else the histogram holds, and
// a nil receiver or n <= 0 records nothing.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	one, folded := NewHistogram(), NewHistogram()
	for i := 0; i < 200; i++ {
		v := rng.Int63n(1 << 20)
		if i%3 == 0 {
			v = -v // clamped to zero on both paths
		}
		n := rng.Int63n(50)
		for j := int64(0); j < n; j++ {
			one.Observe(v)
		}
		folded.ObserveN(v, n)
	}
	folded.ObserveN(7, 0)
	folded.ObserveN(7, -3)
	if !folded.Equal(one) || folded.Min() != one.Min() || folded.Max() != one.Max() {
		t.Fatalf("ObserveN differs from repeated Observe:\n folded: %s\n one:    %s", folded, one)
	}
	var h *Histogram
	h.ObserveN(5, 10) // must not panic
	empty := NewHistogram()
	empty.ObserveN(5, 0)
	if empty.Count() != 0 || empty.Min() != 0 || empty.Max() != 0 {
		t.Fatalf("ObserveN with n=0 recorded something: %s", empty)
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(42) // must not panic
	h.Merge(NewHistogram())
	NewHistogram().Merge(h)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || len(h.Buckets()) != 0 {
		t.Fatal("nil histogram not empty")
	}
	if !h.Equal(NewHistogram()) {
		t.Fatal("nil histogram should equal an empty one")
	}
	if s := h.Summary(); s.Count != 0 {
		t.Fatal("nil summary not empty")
	}
}

func TestNilObserveZeroAlloc(t *testing.T) {
	var h *Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(123) }); allocs != 0 {
		t.Fatalf("nil-histogram Observe allocates: %v allocs/op", allocs)
	}
	on := NewHistogram()
	if allocs := testing.AllocsPerRun(1000, func() { on.Observe(123) }); allocs != 0 {
		t.Fatalf("live-histogram Observe allocates: %v allocs/op", allocs)
	}
}

// TestConcurrentReadDuringWrites exercises the one-writer/many-reader
// contract under the race detector.
func TestConcurrentReadDuringWrites(t *testing.T) {
	h := NewHistogram()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					_ = h.Quantile(0.9)
					_ = h.Buckets()
					_ = h.Summary()
				}
			}
		}()
	}
	for i := int64(0); i < 50000; i++ {
		h.Observe(i % 4096)
	}
	close(done)
	wg.Wait()
	if h.Count() != 50000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	if s := h.String(); s == "" {
		t.Fatal("empty String()")
	}
}
