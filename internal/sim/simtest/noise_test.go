package simtest

import (
	"testing"

	"shogun/internal/sim"
)

// runChain runs a 100-event model chain, 50 cycles apart, under noise and
// returns the noise.
func runChain(t *testing.T, far bool) *Noise {
	t.Helper()
	e := sim.NewEngine()
	left := 100
	var step sim.Func
	step = func() {
		if left--; left > 0 {
			e.PostAfter(50, step, 0, nil)
		}
	}
	e.PostAfter(50, step, 0, nil)
	n := NewNoise(e, 7, far)
	e.Run()
	if got := e.Processed - n.Fired(); got != 100 {
		t.Fatalf("model events = %d, want 100", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after Run", e.Pending())
	}
	var prev sim.Time
	for _, c := range n.fired {
		if c%2 == 0 || c < prev {
			t.Fatalf("noise delivered at cycle %d after %d: want odd, non-decreasing", c, prev)
		}
		prev = c
	}
	return n
}

func TestNoiseFollowsModel(t *testing.T) {
	n := runChain(t, false)
	// The chain lasts 5000 cycles; the noise must keep re-arming inside it.
	inside := 0
	for _, c := range n.fired {
		if c < 5000 {
			inside++
		}
	}
	if inside < 20 {
		t.Fatalf("%d noise events inside the 5000-cycle model, want >= 20", inside)
	}
	cycles := []int64{0, 2, 1000, 5000, 1 << 20}
	vals := make([]int64, len(cycles))
	for i, c := range cycles {
		for _, f := range n.fired {
			if int64(f) < c {
				vals[i]++
			}
		}
	}
	n.Discount(cycles, vals)
	for i, v := range vals {
		if v != 0 {
			t.Fatalf("Discount left %d at cycle %d", v, cycles[i])
		}
	}
}

func TestNoiseFarStaysInOverflow(t *testing.T) {
	n := runChain(t, true)
	if n.Fired() != 8 {
		t.Fatalf("far noise fired %d times, want the 8 initial events (none comes due inside a 5000-cycle model)", n.Fired())
	}
	for _, c := range n.fired {
		if c < ringWindow {
			t.Fatalf("far noise delivered at cycle %d, inside the first ring window", c)
		}
	}
}
