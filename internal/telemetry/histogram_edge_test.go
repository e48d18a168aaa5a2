package telemetry

import (
	"math"
	"testing"
)

// TestMergeEmptyShard pins both directions of merging with an empty
// histogram: an empty source must not disturb the target (including
// min/max), and an empty target must become bit-identical to the source.
func TestMergeEmptyShard(t *testing.T) {
	full := NewHistogram()
	for _, v := range []int64{3, 7, 1000, 31, 32} {
		full.Observe(v)
	}
	want := full.Summary()

	// Empty → full: no-op.
	full.Merge(NewHistogram())
	if got := full.Summary(); got != want {
		t.Fatalf("merging an empty shard changed state: %+v != %+v", got, want)
	}
	if full.Min() != 3 || full.Max() != 1000 {
		t.Fatalf("min/max disturbed by empty merge: min=%d max=%d", full.Min(), full.Max())
	}

	// Full → empty: adopt everything, including min (the empty side's
	// sentinel MaxInt64 min must lose).
	empty := NewHistogram()
	empty.Merge(full)
	if !empty.Equal(full) {
		t.Fatal("empty.Merge(full) is not bit-identical to full")
	}
	if empty.Min() != 3 || empty.Max() != 1000 {
		t.Fatalf("empty target min/max wrong after merge: min=%d max=%d", empty.Min(), empty.Max())
	}

	// Empty ↔ empty stays empty and Equal.
	a, b := NewHistogram(), NewHistogram()
	a.Merge(b)
	if a.Count() != 0 || !a.Equal(b) {
		t.Fatal("empty-empty merge produced observations")
	}
}

// TestMergeSingletonBoundary exercises the bucket-geometry seam at
// 2^subBits = 32: values 0..31 live in exact singleton buckets, 32 is
// the first sub-bucketed value. Sharded observation around the seam must
// merge bit-identically to single-stream observation.
func TestMergeSingletonBoundary(t *testing.T) {
	values := []int64{30, 31, 31, 32, 32, 33, 34, 63, 64}
	single := NewHistogram()
	s1, s2 := NewHistogram(), NewHistogram()
	for i, v := range values {
		single.Observe(v)
		if i%2 == 0 {
			s1.Observe(v)
		} else {
			s2.Observe(v)
		}
	}
	merged := NewHistogram()
	merged.Merge(s1)
	merged.Merge(s2)
	if !merged.Equal(single) {
		t.Fatal("sharded observation around the singleton boundary is not bit-identical to single-stream")
	}
	// 31 and 32 must land in distinct buckets (the seam is real).
	if bucketIdx(31) == bucketIdx(32) {
		t.Fatal("31 and 32 share a bucket; the singleton region must end at 32")
	}
	if bucketIdx(31) != 31 {
		t.Fatalf("singleton bucket for 31 is %d, want 31", bucketIdx(31))
	}
	// Quantiles in the singleton region stay exact after the merge.
	if q := merged.Quantile(0); q != 30 {
		t.Fatalf("merged p0 = %d, want 30", q)
	}
}

// TestMergeSaturatingValues pins behavior at the top of the int64 range:
// MaxInt64 observations must land in the final bucket, merge cleanly and
// keep Max exact, even when the sum wraps (documented as exact-sum only
// within int64).
func TestMergeSaturatingValues(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.MaxInt64)
	h.Observe(0)
	if h.Max() != math.MaxInt64 {
		t.Fatalf("Max = %d, want MaxInt64", h.Max())
	}
	if h.Min() != 0 {
		t.Fatalf("Min = %d, want 0", h.Min())
	}
	o := NewHistogram()
	o.Observe(math.MaxInt64)
	h.Merge(o)
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Max() != math.MaxInt64 {
		t.Fatalf("Max after merge = %d, want MaxInt64", h.Max())
	}
	// The top bucket must be addressable and hold both giant values.
	if top := h.load(numBuckets - 1); top != 2 {
		t.Fatalf("top bucket holds %d, want 2", top)
	}
	// Negative observations clamp to zero rather than corrupting a bucket.
	h.Observe(-5)
	if h.Min() != 0 || h.Count() != 4 {
		t.Fatalf("negative clamp: min=%d count=%d", h.Min(), h.Count())
	}
}

// TestCumulative pins the Prometheus-facing cumulative view: ascending
// exclusive upper edges, monotone counts, final count == total, and the
// last geometry bucket folding to MaxInt64.
func TestCumulative(t *testing.T) {
	var nilH *Histogram
	if nilH.Cumulative() != nil {
		t.Fatal("nil histogram Cumulative should be nil")
	}
	h := NewHistogram()
	if h.Cumulative() != nil {
		t.Fatal("empty histogram Cumulative should be nil")
	}
	for _, v := range []int64{0, 1, 31, 32, 1000, math.MaxInt64} {
		h.Observe(v)
	}
	cum := h.Cumulative()
	if len(cum) == 0 {
		t.Fatal("no cumulative buckets")
	}
	var prevUpper, prevCount int64 = -1, 0
	for _, cb := range cum {
		if cb.Upper <= prevUpper {
			t.Fatalf("upper edges not ascending: %d after %d", cb.Upper, prevUpper)
		}
		if cb.Count < prevCount {
			t.Fatalf("cumulative counts not monotone: %d after %d", cb.Count, prevCount)
		}
		prevUpper, prevCount = cb.Upper, cb.Count
	}
	if last := cum[len(cum)-1]; last.Count != h.Count() {
		t.Fatalf("final cumulative count %d != total %d", last.Count, h.Count())
	} else if last.Upper != math.MaxInt64 {
		t.Fatalf("MaxInt64 observation's bucket upper = %d, want MaxInt64 sentinel", last.Upper)
	}
	// Every observation v is strictly below the first edge whose Upper
	// exceeds it — spot-check the exclusive-upper-edge contract at the
	// singleton seam: exactly 4 observations are < 33 (0, 1, 31, 32).
	var below33 int64
	for _, cb := range cum {
		if cb.Upper <= 33 {
			below33 = cb.Count
		}
	}
	if below33 != 4 {
		t.Fatalf("cumulative count below 33 = %d, want 4", below33)
	}
}
