package main

import (
	"math"
	"testing"
	"time"
)

// TestRefKernelRepeats checks that the reference does the same work on
// every call and in every process, which the host-speed factor relies on.
func TestRefKernelRepeats(t *testing.T) {
	a, b := newRefKernel(), newRefKernel()
	first := a.run()
	if again, other := a.run(), b.run(); again != first || other != first {
		t.Fatalf("kernel results %d, %d, %d; want one value", first, again, other)
	}
	h := newHostRef()
	if err := h.samples(3); err != nil {
		t.Fatal(err)
	}
	if len(h.cpu) != 3 || len(h.walls) != 3 || len(h.start) != 3 || h.sum != first {
		t.Fatalf("hostRef recorded %d/%d/%d calls, result %d; want 3 calls of result %d",
			len(h.cpu), len(h.walls), len(h.start), h.sum, first)
	}
}

func TestAtRef(t *testing.T) {
	got := atRef([]float64{0.3, 0.6}, []float64{refSeconds, 2 * refSeconds})
	if math.Abs(got[0]-0.3) > 1e-12 || math.Abs(got[1]-0.3) > 1e-12 {
		t.Fatalf("atRef = %v, want [0.3 0.3]: a host at half speed halves the time", got)
	}
}

// TestScaleAround checks that a request is scaled by the calls near it
// and by all calls when none is near.
func TestScaleAround(t *testing.T) {
	t0 := time.Unix(1000, 0)
	h := &hostRef{
		cpu:   []float64{refSeconds, refSeconds, 2 * refSeconds, 2 * refSeconds, 2 * refSeconds},
		start: []time.Time{t0, t0.Add(time.Second), t0.Add(5 * time.Second), t0.Add(6 * time.Second), t0.Add(7 * time.Second)},
	}
	for _, c := range []struct {
		at   time.Duration
		want float64
	}{
		{0, 1},
		{500 * time.Millisecond, 1},
		{6 * time.Second, 0.5},
		{time.Hour, 0.5}, // none near: the median of all five
	} {
		if got := h.scaleAround(t0.Add(c.at), time.Second); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("scaleAround(+%v) = %v, want %v", c.at, got, c.want)
		}
	}
}
