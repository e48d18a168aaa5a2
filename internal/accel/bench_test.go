package accel

import (
	"testing"

	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/sim"
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
		// miss, a split adoption and Collect make when sampling is off.
		p.LifetimeHist.Observe(42)
		p.QueueWaitHist.Observe(7)
		p.L1.LatHist.Observe(3)
		a.l2.LatHist.Observe(9)
		if a.tel != nil {
			a.tel.SplitLines.Observe(4)
			a.foldHits()
		}
	}); allocs != 0 {
		t.Fatalf("sampler-off hot path allocates %.0f times per task, want 0", allocs)
	}
}
