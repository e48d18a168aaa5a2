package accel

import (
	"testing"

	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

// collectTracer records every completed task's event.
type collectTracer struct{ events []trace.Event }

func (c *collectTracer) TaskDone(ev trace.Event) { c.events = append(c.events, ev) }

// TestTelemetryShardsMatchTraceStream: the chip's task-lifetime digest,
// one histogram written by every PE, must be bit-identical to one built
// from the global trace event stream.
func TestTelemetryShardsMatchTraceStream(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 6)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	col := &collectTracer{}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	cfg.SampleEvery = 256
	cfg.Tracer = col
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	tel := a.Telemetry()
	if tel == nil {
		t.Fatal("telemetry bundle missing with SampleEvery set")
	}
	global := telemetry.NewHistogram()
	for _, ev := range col.events {
		global.Observe(int64(ev.Done - ev.Start))
	}
	chip := tel.Digests()["task-lifetime"]
	if chip.Count() == 0 {
		t.Fatal("no task lifetimes observed")
	}
	if !chip.Equal(global) {
		t.Fatalf("chip digest differs from global trace stream:\n chip:   %s\n global: %s", chip, global)
	}
	if hs := telemetry.Summaries(tel.Digests()); hs["task-lifetime"].Count != chip.Count() {
		t.Fatalf("digest summary count %d != %d", hs["task-lifetime"].Count, chip.Count())
	}
}

// TestSamplerProducesSeries checks the epoch sampler records the expected
// gauges over a live run and the result carries the snapshot.
func TestSamplerProducesSeries(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 6)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	cfg.SampleEvery = 128
	cfg.SampleCap = 64
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	ts := res.Telemetry
	if ts == nil || len(ts.Cycles) == 0 {
		t.Fatal("no sampled epochs")
	}
	if len(ts.Cycles) >= 64 {
		t.Fatalf("ring exceeded SampleCap: %d", len(ts.Cycles))
	}
	for _, name := range []string{"pe0/resident", "pe3/bunch-entries", "pe0/l1-mshr",
		"dram/queue", "noc/inflight", "engine/events", "tasks/executed"} {
		if ts.Col(name) == nil {
			t.Fatalf("gauge %q missing from snapshot", name)
		}
	}
	// tasks/executed is cumulative: its last sample must be positive and
	// non-decreasing.
	tasks := ts.Col("tasks/executed")
	for i := 1; i < len(tasks); i++ {
		if tasks[i] < tasks[i-1] {
			t.Fatalf("tasks/executed decreased: %v", tasks)
		}
	}
	if tasks[len(tasks)-1] == 0 {
		t.Fatal("tasks/executed never advanced")
	}
	if pts := ts.Imbalance("/resident"); len(pts) != len(ts.Cycles) {
		t.Fatalf("imbalance series length %d != %d epochs", len(pts), len(ts.Cycles))
	}
}

// TestSamplerOffIsNil checks the off path: a bundle without a sampler,
// no result series, and the per-PE histogram hooks still attached.
func TestSamplerOffIsNil(t *testing.T) {
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
	tel := a.Telemetry()
	if tel == nil || tel.Sampler != nil {
		t.Fatal("SampleEvery=0 must build the bundle without a sampler")
	}
	for _, p := range a.PEs() {
		if p.LifetimeHist != tel.TaskLifetime || p.QueueWaitHist != tel.QueueWait {
			t.Fatal("PE histogram hooks not attached with sampling off")
		}
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != nil {
		t.Fatal("result carries telemetry with sampling off")
	}
}

func TestNegativeSampleEveryRejected(t *testing.T) {
	g := gen.Clique(5)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.SampleEvery = -1
	if _, err := New(g, s, cfg); err == nil {
		t.Fatal("negative SampleEvery accepted")
	}
}

// TestSplitLinesCountsEveryAdoption pins that the split-payload
// histogram observes once per adopted subtree on the single adopt path:
// its count equals delivered local splits plus migrations in.
func TestSplitLinesCountsEveryAdoption(t *testing.T) {
	g := gen.PowerLawCluster(300, 6, 0.6, 43)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 8
	cfg.EnableSplitting = true
	cfg.SampleEvery = 512
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err != nil {
		t.Fatal(err)
	}
	if a.Splits == 0 {
		t.Fatal("no split was delivered; the test proves nothing")
	}
	if got, want := a.Telemetry().SplitLines.Count(), a.Splits+a.MigratedIn; got != want {
		t.Fatalf("split-lines count = %d, want splits + migrations in = %d", got, want)
	}
}
