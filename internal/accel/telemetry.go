package accel

import (
	"fmt"

	"shogun/internal/core"
	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// Telemetry bundles one run's time-resolved instrumentation: the epoch
// sampler over live gauges plus the log-bucketed latency/size histograms.
// It exists only when Config.SampleEvery > 0; a nil bundle leaves every
// hot-path observation as a nil-receiver no-op.
type Telemetry struct {
	Sampler *telemetry.Sampler

	// Per-PE shards (index = PE ID). Shards merge bit-identically, so
	// fleet-wide digests are Merge folds over these.
	TaskLifetime []*telemetry.Histogram // slot residency, dispatch→spawn-done
	QueueWait    []*telemetry.Histogram // SPM allocation + dispatch wait
	MemLatency   []*telemetry.Histogram // L1 access latency

	L2Latency  *telemetry.Histogram // shared L2 access latency
	SplitLines *telemetry.Histogram // cache lines per §4.1 split transfer
}

// MergedLifetime folds the per-PE task-lifetime shards into one digest.
func (t *Telemetry) MergedLifetime() *telemetry.Histogram {
	m := telemetry.NewHistogram()
	for _, h := range t.TaskLifetime {
		m.Merge(h)
	}
	return m
}

// Histograms returns the named digest map a live inspection server or a
// JSON snapshot serves.
func (t *Telemetry) Histograms() map[string]telemetry.HistSummary {
	out := map[string]telemetry.HistSummary{
		"l2-latency":  t.L2Latency.Summary(),
		"split-lines": t.SplitLines.Summary(),
	}
	life, wait, lat := telemetry.NewHistogram(), telemetry.NewHistogram(), telemetry.NewHistogram()
	for i := range t.TaskLifetime {
		life.Merge(t.TaskLifetime[i])
		wait.Merge(t.QueueWait[i])
		lat.Merge(t.MemLatency[i])
	}
	out["task-lifetime"] = life.Summary()
	out["queue-wait"] = wait.Summary()
	out["l1-latency"] = lat.Summary()
	return out
}

// initTelemetry builds the bundle, attaches the histogram shards to the
// memory system and PEs, and registers every gauge. Called from New after
// the PEs exist; a zero SampleEvery leaves a.tel nil (sampling off).
func (a *Accelerator) initTelemetry() error {
	if a.cfg.SampleEvery == 0 {
		return nil
	}
	if a.cfg.SampleEvery < 0 {
		return fmt.Errorf("accel: SampleEvery must be >= 0 cycles, got %d", a.cfg.SampleEvery)
	}
	s, err := telemetry.NewSampler(int64(a.cfg.SampleEvery), a.cfg.SampleCap)
	if err != nil {
		return fmt.Errorf("accel: %w", err)
	}
	t := &Telemetry{
		Sampler:    s,
		L2Latency:  telemetry.NewHistogram(),
		SplitLines: telemetry.NewHistogram(),
	}
	a.l2.LatHist = t.L2Latency
	for _, p := range a.pes {
		life, wait, lat := telemetry.NewHistogram(), telemetry.NewHistogram(), telemetry.NewHistogram()
		t.TaskLifetime = append(t.TaskLifetime, life)
		t.QueueWait = append(t.QueueWait, wait)
		t.MemLatency = append(t.MemLatency, lat)
		p.LifetimeHist = life
		p.QueueWaitHist = wait
		p.L1.LatHist = lat
	}

	for i, p := range a.pes {
		p, toks := p, a.toks[i]
		s.Gauge(fmt.Sprintf("pe%d/resident", i), func(int64) int64 { return int64(p.Slots.InUse()) })
		s.Gauge(fmt.Sprintf("pe%d/spm", i), func(int64) int64 { return int64(p.SPM.InUse()) })
		s.Gauge(fmt.Sprintf("pe%d/tokens", i), func(int64) int64 { return int64(toks.TotalInUse()) })
		s.Gauge(fmt.Sprintf("pe%d/conservative", i), func(int64) int64 {
			if p.Conservative() {
				return 1
			}
			return 0
		})
		s.Gauge(fmt.Sprintf("pe%d/l1-mshr", i), func(now int64) int64 {
			return int64(p.L1.MSHRInFlight(sim.Time(now)))
		})
		if tree, ok := p.Policy().(*core.Tree); ok {
			s.Gauge(fmt.Sprintf("pe%d/bunch-entries", i), func(int64) int64 { return int64(tree.LiveEntries()) })
		}
	}
	s.Gauge("dram/queue", func(now int64) int64 { return int64(a.dram.QueueDepth(sim.Time(now))) })
	s.Gauge("dram/row-hits", func(int64) int64 { return a.dram.RowHits.Total })
	s.Gauge("dram/row-misses", func(int64) int64 { return a.dram.RowMisses.Total })
	s.Gauge("noc/inflight", func(now int64) int64 { return int64(a.noc.InFlight(sim.Time(now))) })
	s.Gauge("noc/messages", func(int64) int64 { return a.noc.Messages.Total })
	s.Gauge("engine/events", func(int64) int64 { return a.eng.Processed })
	s.Gauge("tasks/executed", func(int64) int64 {
		var n int64
		for _, p := range a.pes {
			n += p.TasksExecuted.Total
		}
		return n
	})
	a.tel = t
	return nil
}

// Telemetry exposes the run's instrumentation bundle (nil when sampling
// is off).
func (a *Accelerator) Telemetry() *Telemetry { return a.tel }

// armSampler schedules the next sampling epoch. Like the locality monitor
// and the balance loop, the tick re-arms only while work remains, so the
// event queue still drains at run end.
func (a *Accelerator) armSampler() {
	if a.tel == nil || a.samplerArmed {
		return
	}
	a.samplerArmed = true
	a.eng.PostAfter(sim.Time(a.tel.Sampler.Interval()), a, opSamplerTick, nil)
}

func (a *Accelerator) samplerTick() {
	a.samplerArmed = false
	a.tel.Sampler.Sample(int64(a.eng.Now()))
	// Cluster runs keep every chip sampling until the whole cluster
	// drains, so the per-chip epoch columns stay aligned.
	if a.KeepSampling != nil && a.KeepSampling() {
		a.armSampler()
		return
	}
	for _, p := range a.pes {
		if !p.Idle() || p.HasWork() {
			a.armSampler()
			return
		}
	}
	if a.splitsInFlight > 0 {
		a.armSampler()
	}
}
