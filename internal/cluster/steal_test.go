package cluster

import (
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/pattern"
)

// TestStealCheckZeroAlloc pins that a work-stealing check reuses its
// chip lists: the check re-arms every BalancePeriod while the cluster is
// busy, so lists allocated per check add up over a long run.
func TestStealCheckZeroAlloc(t *testing.T) {
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(accel.SchemeShogun, 4)
	cfg.Chip.NumPEs = 2
	c, err := New(gen.Clique(12), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, c.stealCheck); allocs != 0 {
		t.Fatalf("stealCheck allocates %.0f times per check, want 0", allocs)
	}
}
