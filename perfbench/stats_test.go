package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how run-to-run spread is
// judged.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
		med        float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 5.5},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5, 3},
		{[]float64{3.1, 1.2}, 0.725, 2.15, 3.575, 2.15},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7, 4},
		{[]float64{0.43, 0.41, 0.47, 0.44}, 0.415, 0.435, 0.4625, 0.435},
		{[]float64{7}, 7, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
	if m := median(nil); m != 0 {
		t.Errorf("median(nil) = %v, want 0", m)
	}
}

// TestTailPercentileLeavesTenBeyond checks the tail rule: the highest
// percentile, up to p90, with at least ten samples above it.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{1, 10, 15, 19, 20, 29, 40, 200, 360, 999, 1000, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: sorting is percentile's job
		}
		p := tailPercentile(n)
		v := percentile(xs, p)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if n < 2*minBeyond {
			if p != 50 {
				t.Errorf("n=%d: tail p%v, want the median", n, p)
			}
			continue
		}
		if p == maxTail {
			if beyond < minBeyond || n < 100 {
				t.Errorf("n=%d: p%v = %v leaves %d above, want p%v with at least %d", n, p, v, beyond, p, minBeyond)
			}
			continue
		}
		if beyond != minBeyond || p > maxTail {
			t.Errorf("n=%d: p%v = %v leaves %d above, want %d", n, p, v, beyond, minBeyond)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("percentile p50 of {1,2,3} = %v, want 2", got)
	}
}

// TestErrorRatioCountsEveryFailure checks the failure accounting behind
// error_ratio, attempted and failed.
func TestErrorRatioCountsEveryFailure(t *testing.T) {
	var tl tally
	if tl.errorRatio() != 0 {
		t.Fatalf("empty tally ratio = %v, want 0", tl.errorRatio())
	}
	for i := 0; i < 6; i++ {
		tl.ok()
	}
	for i := 0; i < keepReasons+2; i++ {
		tl.fail("wrong count")
	}
	if tl.attempted != 6+keepReasons+2 || tl.failed != keepReasons+2 {
		t.Fatalf("attempted %d failed %d", tl.attempted, tl.failed)
	}
	if want := float64(keepReasons+2) / float64(6+keepReasons+2); !near(tl.errorRatio(), want) {
		t.Errorf("errorRatio = %v, want %v", tl.errorRatio(), want)
	}
	if len(tl.reasons) != keepReasons {
		t.Errorf("kept %d reasons, want %d", len(tl.reasons), keepReasons)
	}
}

// TestSelfTimeSubtractsChildUnion checks that overlapping children are
// subtracted once.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	for _, r := range selfTimes(spans) {
		// Children cover [10,60] and, clipped, [90,100]: 60 of 100 ns.
		if r.Name == "op" && !near(r.SelfMS, 40e-6) {
			t.Errorf("op self = %v ms, want %v", r.SelfMS, 40e-6)
		}
	}
}
