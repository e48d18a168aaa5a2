package accel

import (
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/task"
)

// BenchmarkSimulate measures whole-accelerator simulation throughput
// (simulated tasks per wall second) on a fixed workload.
func BenchmarkSimulate(b *testing.B) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 5)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	b.ReportAllocs()
	var tasks int64
	for i := 0; i < b.N; i++ {
		a, err := New(g, s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			b.Fatal(err)
		}
		tasks = res.Tasks
	}
	b.ReportMetric(float64(tasks), "tasks/op")
}

// BenchmarkSimulateSamplerOn is BenchmarkSimulate's workload sampled
// every 512 cycles with live histograms attached; benchstat against
// BenchmarkSimulate, which samples nothing, bounds the sampler's
// overhead.
func BenchmarkSimulateSamplerOn(b *testing.B) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 5)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	cfg.SampleEvery = 512
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := New(g, s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBalanceCheckZeroAlloc pins that an imbalance check reuses its PE
// lists: armBalance re-arms it one cycle after a PE idles, so a check
// that allocated its lists would allocate about once per idle PE.
func TestBalanceCheckZeroAlloc(t *testing.T) {
	g := gen.Clique(8)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	cfg.EnableSplitting = true
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, a.balanceCheck); allocs != 0 {
		t.Fatalf("balanceCheck allocates %.0f times per check, want 0", allocs)
	}
}

// TestSamplerOffHotPathZeroAlloc pins the one digest path with the
// sampler off: the bundle exists without a sampler, a run fills its
// digests and reports them, and the per-event observations — a task's
// lifetime and queue wait, a cache miss, a split adoption — plus the
// run-end fold allocate nothing once their buckets are touched. A cache
// hit itself observes nothing on any path.
func TestSamplerOffHotPathZeroAlloc(t *testing.T) {
	g := gen.Clique(8)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 2
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.tel == nil || a.tel.Sampler != nil {
		t.Fatal("SampleEvery=0 must build the bundle without a sampler")
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"task-lifetime", "queue-wait", "l1-latency", "l2-latency"} {
		if n := a.tel.Digests()[name].Count(); n == 0 || res.Digests[name].Count != n {
			t.Fatalf("%s: digest holds %d, result reports %d; want the same, above 0", name, n, res.Digests[name].Count)
		}
	}
	p := a.pes[0]
	if allocs := testing.AllocsPerRun(100, func() {
		// The exact observation calls pe.finish/stageDispatch, a cache
		// miss, a split adoption and the run-end Series make.
		p.LifetimeHist.Observe(42)
		p.QueueWaitHist.Observe(7)
		p.L1.LatHist.Observe(3)
		a.l2.LatHist.Observe(9)
		a.tel.SplitLines.Observe(4)
		a.tel.Series()
	}); allocs != 0 {
		t.Fatalf("sampler-off hot path allocates %.0f times per task, want 0", allocs)
	}
}

// TestForcedSplitRoundTripZeroAlloc pins that a split allocates
// nothing once the pools are warm: the message comes from the
// accelerator's free list, the snapshot from the candidate pool, and the
// adopting tree takes the snapshot over. PE 0 holds the only root (the
// 511 candidates of a 512-clique's top vertex) and PE 1 adopts; each
// round trip steps the engine until the split is carvable, forces it,
// then steps until it is adopted. Splitting is off, so no balance round
// carves beside the forced ones.
func TestForcedSplitRoundTripZeroAlloc(t *testing.T) {
	g := gen.Clique(512)
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 2
	eng := sim.NewEngine()
	tel, err := NewTelemetry(cfg, eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewShared(g, triSchedule(t), cfg, eng, []graph.VertexID{511}, tel, task.NewCandPool(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	roundTrip := func() {
		for !a.ForceSplit() {
			if !a.eng.Step() {
				t.Fatal("run drained before a split was carvable")
			}
		}
		for a.splitsInFlight > 0 {
			a.eng.Step()
		}
	}
	roundTrip() // warm the message and candidate free lists
	if allocs := testing.AllocsPerRun(4, roundTrip); allocs != 0 {
		t.Fatalf("a forced split round trip allocates %.0f times, want 0", allocs)
	}
	if a.Splits != 6 {
		t.Fatalf("delivered %d splits, want 6", a.Splits)
	}
	for a.eng.Step() {
	}
	if err := a.VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
	// The triangles whose top vertex is 511: C(511, 2).
	if got := a.Collect().Embeddings; got != 511*510/2 {
		t.Fatalf("embeddings = %d, want %d", got, 511*510/2)
	}
}
