package bench

import (
	"testing"

	"shogun/internal/telemetry"
)

// TestImbalanceSplitLowersTail is the time-resolved load-balance
// acceptance check: on the skewed R-MAT analogue (wi) mining a deep
// 4-clique pattern with 20 PEs, task-tree splitting must measurably
// lower the end-of-run max/mean PE-occupancy ratio relative to the
// no-split run.
func TestImbalanceSplitLowersTail(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	grid, series, err := imbalanceData(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"off", "on"} {
		if grid.Res(key) == nil {
			t.Fatalf("cell %q failed: %v", key, grid.failures)
		}
		if len(series[key]) == 0 {
			t.Fatalf("cell %q produced no imbalance series", key)
		}
	}
	if s := grid.Res("on").Splits; s == 0 {
		t.Fatal("splitting enabled but no splits happened — tail comparison is vacuous")
	}
	off := TailImbalance(series["off"], 0.3)
	on := TailImbalance(series["on"], 0.3)
	if off <= 0 || on <= 0 {
		t.Fatalf("degenerate tails: off=%v on=%v", off, on)
	}
	// "Measurably lower": at least 10% below the no-split tail.
	if on >= off*0.9 {
		t.Fatalf("split tail imbalance %.2f not measurably below no-split %.2f", on, off)
	}
}

func TestTailImbalanceHelper(t *testing.T) {
	pts := []telemetry.ImbalancePoint{
		{Ratio: 9}, {Ratio: 9}, {Ratio: 9}, {Ratio: 9}, {Ratio: 9},
		{Ratio: 2}, {Ratio: 4}, {Ratio: 0}, {Ratio: 3}, {Ratio: 0},
	}
	// Last 50% = ratios {2,4,0,3,0}; idle epochs are skipped.
	if got := TailImbalance(pts, 0.5); got != 3 {
		t.Fatalf("TailImbalance = %v, want 3", got)
	}
	if got := TailImbalance(nil, 0.3); got != 0 {
		t.Fatalf("empty series = %v", got)
	}
	if got := TailImbalance(pts[7:8], 1); got != 0 {
		t.Fatalf("all-idle tail = %v", got)
	}
}
