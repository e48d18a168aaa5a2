package accel

import (
	"fmt"
	"testing"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
)

// conformanceVariant is one scheduling configuration of the matrix.
type conformanceVariant struct {
	name   string
	scheme Scheme
	mutate func(*Config)
}

func conformanceVariants() []conformanceVariant {
	return []conformanceVariant{
		{"bfs", SchemeBFS, nil},
		{"dfs", SchemeDFS, nil},
		{"pseudo-dfs", SchemePseudoDFS, nil},
		{"parallel-dfs", SchemeParallelDFS, nil},
		{"shogun", SchemeShogun, nil},
		{"shogun+split", SchemeShogun, func(c *Config) { c.EnableSplitting = true }},
		{"shogun+merge", SchemeShogun, func(c *Config) { c.EnableMerging = true }},
		{"shogun+split+merge", SchemeShogun, func(c *Config) {
			c.EnableSplitting = true
			c.EnableMerging = true
		}},
	}
}

// TestConformanceMatrix is the cross-scheme conformance suite: every
// scheduling scheme (and every Shogun optimization combination) must
// produce bit-identical embedding counts to the software golden miner on
// every pattern of the workload suite, over two dataset analogues.
// Scheduling only reorders the search — it must never change what is
// found. Each cell also passes the counter-conservation pass
// (which every run makes) and the resource-leak check.
func TestConformanceMatrix(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)},
		{"plc", gen.PowerLawCluster(300, 6, 0.6, 43)},
	}
	workloads := datasets.Workloads()

	// Golden counts: one software-miner run per (graph, pattern) cell,
	// shared across the scheme variants.
	golden := map[string]int64{}
	for _, gr := range graphs {
		for _, wl := range workloads {
			golden[gr.name+"/"+wl.Name] = mine.Count(gr.g, wl.Schedule)
		}
	}

	for _, gr := range graphs {
		for _, wl := range workloads {
			want := golden[gr.name+"/"+wl.Name]
			for _, v := range conformanceVariants() {
				name := fmt.Sprintf("%s/%s/%s", gr.name, wl.Name, v.name)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(v.scheme)
					cfg.NumPEs = 4
					if v.mutate != nil {
						v.mutate(&cfg)
					}
					a, err := New(gr.g, wl.Schedule, cfg)
					if err != nil {
						t.Fatalf("new: %v", err)
					}
					res, err := a.Run()
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if res.Embeddings != want {
						t.Errorf("embeddings = %d, golden miner = %d", res.Embeddings, want)
					}
					if res.Cycles <= 0 || res.Tasks <= 0 {
						t.Errorf("degenerate run: cycles=%d tasks=%d", res.Cycles, res.Tasks)
					}
				})
			}
		}
	}
}
