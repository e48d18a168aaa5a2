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
//
// There is one histogram per name for the whole chip; the PEs sharing
// it all run on the engine's goroutine. Cache hits reach L1Latency and
// L2Latency through mem.Cache.FoldHits, at each sampler epoch and when
// the run's Result is collected.
type Telemetry struct {
	Sampler *telemetry.Sampler

	TaskLifetime *telemetry.Histogram // slot residency, dispatch→spawn-done
	QueueWait    *telemetry.Histogram // SPM allocation + dispatch wait
	L1Latency    *telemetry.Histogram // L1 access latency, every PE
	L2Latency    *telemetry.Histogram // shared L2 access latency
	SplitLines   *telemetry.Histogram // cache lines per §4.1 split transfer
}

// Digests copies the run's histograms into one fresh digest per name.
// The caller owns the result (a cluster merges its chips' digests), and
// may call it from another goroutine while the run proceeds.
func (t *Telemetry) Digests() map[string]*telemetry.Histogram {
	out := make(map[string]*telemetry.Histogram, 5)
	for name, h := range map[string]*telemetry.Histogram{
		"task-lifetime": t.TaskLifetime, "queue-wait": t.QueueWait,
		"l1-latency": t.L1Latency, "l2-latency": t.L2Latency, "split-lines": t.SplitLines,
	} {
		out[name] = telemetry.NewHistogram()
		out[name].Merge(h)
	}
	return out
}

// initTelemetry builds the bundle, attaches the histograms to the memory
// system and PEs, and registers every gauge. Called from New after the
// PEs exist; a zero SampleEvery leaves a.tel nil (sampling off).
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
		Sampler:      s,
		TaskLifetime: telemetry.NewHistogram(),
		QueueWait:    telemetry.NewHistogram(),
		L1Latency:    telemetry.NewHistogram(),
		L2Latency:    telemetry.NewHistogram(),
		SplitLines:   telemetry.NewHistogram(),
	}
	a.l2.LatHist = t.L2Latency
	for _, p := range a.pes {
		p.LifetimeHist = t.TaskLifetime
		p.QueueWaitHist = t.QueueWait
		p.L1.LatHist = t.L1Latency
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
	s.Gauge("dram/row-hits", func(int64) int64 { return a.dram.RowHits })
	s.Gauge("dram/row-misses", func(int64) int64 { return a.dram.RowMisses })
	s.Gauge("noc/inflight", func(now int64) int64 { return int64(a.noc.InFlight(sim.Time(now))) })
	s.Gauge("noc/messages", func(int64) int64 { return a.noc.Messages })
	s.Gauge("engine/events", func(int64) int64 { return a.eng.Processed })
	s.Gauge("tasks/executed", func(int64) int64 {
		var n int64
		for _, p := range a.pes {
			n += p.TasksExecuted
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
	a.foldHits()
	a.tel.Sampler.Sample(int64(a.eng.Now()))
	// Cluster runs keep every chip sampling until the whole cluster
	// drains, so the chips' epoch columns stay aligned.
	if !a.ChipIdle() || (a.KeepSampling != nil && a.KeepSampling()) {
		a.armSampler()
	}
}

// foldHits brings the cache-latency histograms up to date with the hits
// counted since the last fold (see mem.Cache.FoldHits).
func (a *Accelerator) foldHits() {
	for _, p := range a.pes {
		p.L1.FoldHits()
	}
	a.l2.FoldHits()
}
