package accel

import (
	"fmt"
	"testing"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
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

// table2Lines is the simulator's Table 2 numerator (intermediate input
// lines) predicted from the golden miner's per-depth counts. The two
// agree at every position but one kind: a task whose child plan is an
// alias (the candidate set IS an ancestor's stored set, e.g. tt_e's
// tail) reads nothing in the simulator — it references the owner's slot
// in place — while the miner re-stores the set and counts its lines.
// An alias plan has no steps, so the miner's count at that position is
// exactly those re-store reads, and dropping it gives the simulator's.
func table2Lines(s *pattern.Schedule, r *mine.Result) int64 {
	var lines int64
	for d := 1; d < s.Depth(); d++ {
		if p := &s.Plans[d]; p.Base.Kind == pattern.RefStored && len(p.Steps) == 0 {
			continue
		}
		lines += r.IntermediateLinesPerDepth[d-1]
	}
	return lines
}

// TestConformanceMatrix is the cross-scheme conformance suite: every
// scheduling scheme (and every Shogun optimization combination) must
// produce bit-identical embedding counts to the software golden miner on
// every pattern of the workload suite, over two dataset analogues.
// Scheduling only reorders the search — it must never change what is
// found. Each cell also pins the Table 2 counters to the miner's (tasks
// plus leaf tasks equal its Tasks(); intermediate lines, table2Lines)
// and passes the counter-conservation pass (which every run makes) and
// the resource-leak check.
func TestConformanceMatrix(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)},
		{"plc", gen.PowerLawCluster(300, 6, 0.6, 43)},
	}
	workloads := datasets.Workloads()

	// Golden results: one software-miner run per (graph, pattern) cell,
	// shared across the scheme variants.
	golden := map[string]*mine.Result{}
	for _, gr := range graphs {
		for _, wl := range workloads {
			golden[gr.name+"/"+wl.Name] = mine.NewMiner(gr.g, wl.Schedule).Run()
		}
	}

	for _, gr := range graphs {
		for _, wl := range workloads {
			gold := golden[gr.name+"/"+wl.Name]
			wantLines := table2Lines(wl.Schedule, gold)
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
					if res.Embeddings != gold.Embeddings {
						t.Errorf("embeddings = %d, golden miner = %d", res.Embeddings, gold.Embeddings)
					}
					if got := res.Tasks + res.LeafTasks; got != gold.Tasks() {
						t.Errorf("tasks+leaf tasks = %d, golden miner tasks = %d", got, gold.Tasks())
					}
					var lines int64
					for _, p := range a.PEs() {
						lines += p.IntermediateIn
					}
					if lines != wantLines {
						t.Errorf("intermediate lines = %d, golden miner (alias reads dropped) = %d", lines, wantLines)
					}
					if res.Cycles <= 0 || res.Tasks <= 0 {
						t.Errorf("degenerate run: cycles=%d tasks=%d", res.Cycles, res.Tasks)
					}
				})
			}
		}
	}
}
