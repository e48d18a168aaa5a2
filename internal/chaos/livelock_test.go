package chaos

import (
	"testing"

	"shogun/internal/accel"
	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
)

// TestQuiescedTreeWakes pins the two reproducers of the quiesced-tree
// livelock: a merged tree quiesced under conservative mode (§4.2) must
// wake when conservative mode turns off, not only when its partner
// finishes. Before that wake, a partner waiting on bunches the quiesced
// tree held never moved, and the forced flip and sampler ticks kept
// simulated time advancing until the event budget tripped. Both cells
// run with splitting and merging on, sampling every 512 cycles and
// forced flips and splits without jitter, under an event budget about
// twice what the larger cell needs to finish (1.54M events).
func TestQuiescedTreeWakes(t *testing.T) {
	cells := []struct {
		name   string
		g      func() *graph.Graph
		p      pattern.Pattern
		pes    int
		golden int64
	}{
		{"plc300-dia", func() *graph.Graph { return gen.PowerLawCluster(300, 6, 0.6, 43) }, pattern.Diamond(), 4, 6930},
		{"as-tt", func() *graph.Graph { return datasets.MustGet("as") }, pattern.TailedTriangle(), 10, 17716168},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			s, err := pattern.Build(c.p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := accel.DefaultConfig(accel.SchemeShogun)
			cfg.NumPEs = c.pes
			cfg.EnableSplitting = true
			cfg.EnableMerging = true
			cfg.SampleEvery = 512
			cfg.MaxEvents = 3_000_000
			in := New(Config{Seed: 2, FlipPeriod: 1700, SplitPeriod: 2300})
			cfg.Perturb = in
			a, err := accel.New(c.g(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			in.Attach(a)
			res, err := a.Run()
			if err != nil {
				t.Fatalf("run did not finish: %v", err)
			}
			if res.Embeddings != c.golden {
				t.Fatalf("embeddings = %d, golden %d", res.Embeddings, c.golden)
			}
			if err := a.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			t.Logf("events %d, cycles %d, flips %d, splits %d", res.Events, res.Cycles, in.Flips, in.Splits)
		})
	}
}
