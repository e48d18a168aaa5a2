package accel

import (
	"fmt"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

func schedules(t *testing.T) []*pattern.Schedule {
	t.Helper()
	var out []*pattern.Schedule
	add := func(p pattern.Pattern, induced bool) {
		s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	add(pattern.Triangle(), false)
	add(pattern.FourClique(), false)
	add(pattern.TailedTriangle(), false)
	add(pattern.TailedTriangle(), true)
	add(pattern.Diamond(), false)
	add(pattern.FourCycle(), false)
	add(pattern.FourCycle(), true)
	add(pattern.FiveClique(), false)
	// star3 exercises chained alias plans (C2 and C3 both reference C1).
	add(pattern.StarN(3), false)
	add(pattern.StarN(3), true)
	return out
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"er":     gen.ErdosRenyi(200, 900, 5),
		"rmat":   gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 6),
		"plc":    gen.PowerLawCluster(150, 5, 0.6, 7),
		"clique": gen.Clique(14),
	}
}

// TestSimulatedCountsMatchMiner is the master correctness check: every
// scheme, on every graph × schedule combination, must find exactly the
// embeddings the software miner finds.
func TestSimulatedCountsMatchMiner(t *testing.T) {
	schemes := []Scheme{SchemeShogun, SchemePseudoDFS, SchemeDFS, SchemeBFS, SchemeParallelDFS}
	for gname, g := range testGraphs() {
		for _, s := range schedules(t) {
			want := mine.Count(g, s)
			for _, scheme := range schemes {
				cfg := DefaultConfig(scheme)
				cfg.NumPEs = 4
				a, err := New(g, s, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, s.Name, scheme, err)
				}
				res, err := a.Run()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", gname, s.Name, scheme, err)
				}
				if res.Embeddings != want {
					t.Errorf("%s/%s/%s: sim=%d miner=%d", gname, s.Name, scheme, res.Embeddings, want)
				}
				if res.Cycles <= 0 {
					t.Errorf("%s/%s/%s: no cycles simulated", gname, s.Name, scheme)
				}
			}
		}
	}
}

// TestShogunOptimizationsPreserveCounts exercises splitting and merging.
func TestShogunOptimizationsPreserveCounts(t *testing.T) {
	g := gen.RMAT(256, 2000, 0.62, 0.14, 0.14, 11)
	for _, s := range schedules(t) {
		want := mine.Count(g, s)
		for _, mode := range []struct {
			name         string
			split, merge bool
			pes          int
		}{
			{"split", true, false, 8},
			{"merge", false, true, 4},
			{"both", true, true, 8},
		} {
			cfg := DefaultConfig(SchemeShogun)
			cfg.NumPEs = mode.pes
			cfg.EnableSplitting = mode.split
			cfg.EnableMerging = mode.merge
			cfg.BalancePeriod = 256 // aggressive, to exercise the path
			cfg.MergePeriod = 256
			a, err := New(g, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, mode.name, err)
			}
			if res.Embeddings != want {
				t.Errorf("%s/%s: sim=%d miner=%d (splits=%d merges=%d)",
					s.Name, mode.name, res.Embeddings, want, res.Splits, res.Merges)
			}
		}
	}
}

// TestSchemeBehaviourShape checks the qualitative Table 1 relationships on
// a compute-heavy workload: Shogun ≥ pseudo-DFS ≥ DFS in speed; DFS has
// minimal footprint; BFS has the largest footprint.
func TestSchemeBehaviourShape(t *testing.T) {
	g := gen.RMAT(512, 4000, 0.6, 0.15, 0.15, 9)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	run := func(scheme Scheme) *Result {
		cfg := DefaultConfig(scheme)
		cfg.NumPEs = 2
		a, err := New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := a.Run()
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		return r
	}
	shogun := run(SchemeShogun)
	pseudo := run(SchemePseudoDFS)
	dfs := run(SchemeDFS)
	bfs := run(SchemeBFS)

	if !(shogun.Cycles <= pseudo.Cycles) {
		t.Errorf("shogun (%d cycles) slower than pseudo-dfs (%d)", shogun.Cycles, pseudo.Cycles)
	}
	if !(pseudo.Cycles < dfs.Cycles) {
		t.Errorf("pseudo-dfs (%d cycles) not faster than dfs (%d)", pseudo.Cycles, dfs.Cycles)
	}
	if !(shogun.IUUtil > dfs.IUUtil) {
		t.Errorf("shogun IU util %.3f not above dfs %.3f", shogun.IUUtil, dfs.IUUtil)
	}
	if !(bfs.PeakLiveSets > 4*dfs.PeakLiveSets) {
		t.Errorf("bfs footprint %d not much larger than dfs %d", bfs.PeakLiveSets, dfs.PeakLiveSets)
	}
	if dfs.SlotOccupancy > 1.0/float64(DefaultConfig(SchemeDFS).PE.Width)+0.01 {
		t.Errorf("dfs slot occupancy %.3f exceeds one slot", dfs.SlotOccupancy)
	}
}

// TestSplittingActuallySplits forces a pathological single-heavy-tree
// workload and checks splits occur and help.
func TestSplittingActuallySplits(t *testing.T) {
	// A star-heavy graph: one huge hub makes one search tree dominate.
	// The hub is the last vertex so static dispatch hands it out last —
	// the straggler-tree case splitting exists for.
	var edges []graph.Edge
	n := 600
	hub := graph.VertexID(n - 1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: hub, V: graph.VertexID(i)})
		edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID((i % 50) + 51)})
	}
	g := graph.MustNew(n, edges)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	want := mine.Count(g, s)

	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 8
	cfg.EnableSplitting = true
	cfg.BalancePeriod = 64
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != want {
		t.Fatalf("count %d != %d", res.Embeddings, want)
	}
	if res.Splits == 0 {
		t.Error("no task-tree splits occurred on a pathologically imbalanced workload")
	}
}

// TestMergingEngages checks that a low-parallelism workload triggers
// merges.
func TestMergingEngages(t *testing.T) {
	g := gen.NearRegular(2000, 4, 3) // sparse, low degree: starved PEs
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	want := mine.Count(g, s)
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 2
	cfg.EnableMerging = true
	cfg.MergePeriod = 512
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != want {
		t.Fatalf("count %d != %d", res.Embeddings, want)
	}
	if res.Merges == 0 {
		t.Error("no merges on a parallelism-starved workload")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	g := gen.Clique(5)
	s, _ := pattern.Build(pattern.Triangle())
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 0
	if _, err := New(g, s, cfg); err == nil {
		t.Error("accepted zero PEs")
	}
	cfg = DefaultConfig("nonsense")
	cfg.NumPEs = 1
	if _, err := New(g, s, cfg); err == nil {
		t.Error("accepted unknown scheme")
	}
}

func TestFingersAlias(t *testing.T) {
	g := gen.Clique(8)
	s, _ := pattern.Build(pattern.Triangle())
	a, err := New(g, s, DefaultConfig(SchemeFingers))
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != SchemePseudoDFS {
		t.Errorf("fingers alias resolved to %q", res.Scheme)
	}
	if res.Embeddings != 56 { // C(8,3)
		t.Errorf("count = %d", res.Embeddings)
	}
}

// TestForceConservativePinsPEMode: a run pinned conservative from the
// start enters the mode through the PE's own transition, so every view
// of it agrees: each PE reports conservative residency over the whole
// run, one transition (odd parity while the mode is on, which the
// metrics pass inside Run checks), and a conservative gauge reading 1.
func TestForceConservativePinsPEMode(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 6)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	cfg.EnableSplitting, cfg.EnableMerging = true, true
	cfg.ForceConservative = true
	cfg.SampleEvery = 256
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := mine.Count(g, s); res.Embeddings != want {
		t.Fatalf("count %d != %d", res.Embeddings, want)
	}
	end := a.EndTime()
	for i, p := range a.PEs() {
		if !p.Conservative() || p.ConservResidency(end) != end || res.PerPE[i].ConservativeCycles != end {
			t.Errorf("pe%d: conservative=%t residency=%d (result %d), want the whole run %d",
				i, p.Conservative(), p.ConservResidency(end), res.PerPE[i].ConservativeCycles, end)
		}
		if n := p.ConservativeTransitions; n != 1 {
			t.Errorf("pe%d: %d conservative transitions, want 1", i, n)
		}
		if v, ok := a.Telemetry().Sampler.Last(fmt.Sprintf("pe%d/conservative", i)); !ok || v != 1 {
			t.Errorf("pe%d: conservative gauge = %d (%t), want 1", i, v, ok)
		}
	}
}
