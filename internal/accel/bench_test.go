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

// benchSampler is the shared body of the sampler on/off benchmark pair:
// the same fixed workload with the epoch sampler enabled or disabled, so
// `benchstat` on the two bounds the telemetry overhead directly.
func benchSampler(b *testing.B, sampleEvery sim.Time) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 5)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	cfg.SampleEvery = sampleEvery
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

// BenchmarkSimulateSamplerOff is the telemetry-off baseline: every hot
// path crosses a nil-histogram Observe or a nil-bundle check and nothing
// else.
func BenchmarkSimulateSamplerOff(b *testing.B) { benchSampler(b, 0) }

// BenchmarkSimulateSamplerOn samples every 512 cycles with live
// histograms attached.
func BenchmarkSimulateSamplerOn(b *testing.B) { benchSampler(b, 512) }

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

// TestSamplerOffHotPathZeroAlloc pins the off-switch contract: with
// sampling disabled, the per-event instrumentation the telemetry layer
// added to the simulator hot paths — nil-receiver histogram observes and
// the nil-bundle guards around split accounting and the cache-hit fold —
// allocates nothing. A cache hit itself observes nothing on any path.
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
	if a.tel != nil {
		t.Fatal("SampleEvery=0 must leave the telemetry bundle nil")
	}
	p := a.pes[0]
	if allocs := testing.AllocsPerRun(100, func() {
		// The exact observation calls pe.finish/stageDispatch, a cache
		// miss, a split adoption and the run-end Series make when sampling
		// is off.
		p.LifetimeHist.Observe(42)
		p.QueueWaitHist.Observe(7)
		p.L1.LatHist.Observe(3)
		a.l2.LatHist.Observe(9)
		if a.tel != nil {
			a.tel.SplitLines.Observe(4)
			a.tel.fold()
		}
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
	a, err := NewShared(g, triSchedule(t), cfg, sim.NewEngine(), []graph.VertexID{511}, nil, task.NewCandPool(g), 0)
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
	a.eng.Run()
	if err := a.VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
	// The triangles whose top vertex is 511: C(511, 2).
	if got := a.Collect().Embeddings; got != 511*510/2 {
		t.Fatalf("embeddings = %d, want %d", got, 511*510/2)
	}
}
