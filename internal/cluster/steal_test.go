package cluster

import (
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/graph"
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

// TestForcedMigrationZeroAlloc pins that a chip-to-chip migration
// allocates nothing once the pools are warm: the message comes from the
// cluster's free list, the snapshot from the machine's candidate pool,
// and the adopting chip's tree takes the snapshot over. A range
// partition puts a 128-clique on chip 0 and 128 isolated vertices on
// chip 1, so chip 1 soon idles and adopts; each round trip steps the
// engine until a migration is carvable, forces it, then steps until
// chip 1 has adopted it and is idle again, so chip 0 stays the victim.
// The steal loop is left unarmed, so no migration but the forced ones
// runs.
func TestForcedMigrationZeroAlloc(t *testing.T) {
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	var edges []graph.Edge
	for u := 0; u < 128; u++ {
		for v := u + 1; v < 128; v++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(u), V: graph.VertexID(v)})
		}
	}
	g, err := graph.New(256, edges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(accel.SchemeShogun, 2)
	cfg.Partition = ModeRange
	cfg.Chip.NumPEs = 1
	c, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, chip := range c.chips {
		chip.OnChipIdle = nil // only the forced migrations below
		chip.Start()
	}
	roundTrip := func() {
		for !c.ForceMigrate() {
			if !c.eng.Step() {
				t.Fatal("run drained before a migration was carvable")
			}
		}
		for c.inFlight > 0 || !c.chips[1].ChipIdle() {
			c.eng.Step()
		}
	}
	roundTrip() // warm the message and candidate free lists
	if allocs := testing.AllocsPerRun(4, roundTrip); allocs != 0 {
		t.Fatalf("a forced migration allocates %.0f times, want 0", allocs)
	}
	if c.Migrations != 6 {
		t.Fatalf("delivered %d migrations, want 6", c.Migrations)
	}
	c.eng.Run()
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := c.collect().Embeddings; got != 128*127*126/6 {
		t.Fatalf("embeddings = %d, want C(128, 3) = %d", got, 128*127*126/6)
	}
}
