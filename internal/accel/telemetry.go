package accel

import (
	"fmt"

	"shogun/internal/core"
	"shogun/internal/mem"
	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// Telemetry bundles one engine's time-resolved instrumentation: the
// log-bucketed latency/size histograms plus, when Config.SampleEvery >
// 0, the epoch sampler over live gauges. The engine's owner builds it —
// New for a chip's private engine, cluster.New for a machine — and every
// chip on that engine records into it. The histograms exist on every
// run; Sampler is nil when sampling is off.
//
// There is one histogram per name for the whole machine; the PEs and
// caches sharing it all run on the engine's goroutine. Cache hits reach
// L1Latency and L2Latency through mem.Cache.FoldHits, at each sampler
// epoch and when the owner takes the run's series.
type Telemetry struct {
	Sampler *telemetry.Sampler // nil when SampleEvery is 0

	TaskLifetime *telemetry.Histogram // slot residency, dispatch→spawn-done
	QueueWait    *telemetry.Histogram // SPM allocation + dispatch wait
	L1Latency    *telemetry.Histogram // L1 access latency, every PE
	L2Latency    *telemetry.Histogram // L2 access latency, every chip
	SplitLines   *telemetry.Histogram // cache lines per §4.1 split transfer

	eng    *sim.Engine
	busy   func() bool  // the owner's "work remains" predicate
	caches []*mem.Cache // every attached chip's L1s and L2, for the fold
	armed  bool
}

// NewTelemetry builds the bundle for the owner of eng, with a sampler
// from cfg's sampling fields when SampleEvery > 0. Each tick re-arms
// while busy reports work remaining, so the event queue still drains at
// run end.
func NewTelemetry(cfg Config, eng *sim.Engine, busy func() bool) (*Telemetry, error) {
	t := &Telemetry{
		TaskLifetime: telemetry.NewHistogram(),
		QueueWait:    telemetry.NewHistogram(),
		L1Latency:    telemetry.NewHistogram(),
		L2Latency:    telemetry.NewHistogram(),
		SplitLines:   telemetry.NewHistogram(),
		eng:          eng,
		busy:         busy,
	}
	if cfg.SampleEvery != 0 { // NewSampler rejects a negative interval
		s, err := telemetry.NewSampler(int64(cfg.SampleEvery), cfg.SampleCap)
		if err != nil {
			return nil, fmt.Errorf("accel: SampleEvery: %w", err)
		}
		t.Sampler = s
	}
	return t, nil
}

// Digests names the bundle's histograms. They are the live digests, not
// copies: another goroutine may read them while the run proceeds.
func (t *Telemetry) Digests() map[string]*telemetry.Histogram {
	return map[string]*telemetry.Histogram{
		"task-lifetime": t.TaskLifetime, "queue-wait": t.QueueWait,
		"l1-latency": t.L1Latency, "l2-latency": t.L2Latency, "split-lines": t.SplitLines,
	}
}

// attach wires chip a into the bundle: its PEs and caches record into
// the shared histograms, and its gauges join the sampler, if any. Per-PE
// gauges take machine-wide numbers, PE p reporting as pe{base+p};
// chip-scope gauges register under one name per bundle, summing chips.
func (t *Telemetry) attach(a *Accelerator, base int) {
	a.l2.LatHist = t.L2Latency
	for _, p := range a.pes {
		p.LifetimeHist = t.TaskLifetime
		p.QueueWaitHist = t.QueueWait
		p.L1.LatHist = t.L1Latency
		t.caches = append(t.caches, p.L1)
	}
	t.caches = append(t.caches, a.l2)

	s := t.Sampler
	if s == nil {
		return
	}
	for i, p := range a.pes {
		p, toks, id := p, a.toks[i], base+i
		s.Gauge(fmt.Sprintf("pe%d/resident", id), func(int64) int64 { return int64(p.Slots.InUse()) })
		s.Gauge(fmt.Sprintf("pe%d/spm", id), func(int64) int64 { return int64(p.SPM.InUse()) })
		s.Gauge(fmt.Sprintf("pe%d/tokens", id), func(int64) int64 { return int64(toks.TotalInUse()) })
		s.Gauge(fmt.Sprintf("pe%d/conservative", id), func(int64) int64 {
			if p.Conservative() {
				return 1
			}
			return 0
		})
		s.Gauge(fmt.Sprintf("pe%d/l1-mshr", id), func(now int64) int64 {
			return int64(p.L1.MSHRInFlight(sim.Time(now)))
		})
		if tree, ok := p.Policy().(*core.Tree); ok {
			s.Gauge(fmt.Sprintf("pe%d/bunch-entries", id), func(int64) int64 { return int64(tree.LiveEntries()) })
		}
	}
	s.Gauge("dram/queue", func(now int64) int64 { return int64(a.dram.QueueDepth(sim.Time(now))) })
	s.Gauge("dram/row-hits", func(int64) int64 { return a.dram.RowHits })
	s.Gauge("dram/row-misses", func(int64) int64 { return a.dram.RowMisses })
	s.Gauge("noc/inflight", func(now int64) int64 { return int64(a.noc.InFlight(sim.Time(now))) })
	s.Gauge("noc/messages", func(int64) int64 { return a.noc.Messages })
	if base == 0 {
		// The engine is shared: the first chip registers its count once.
		s.Gauge("engine/events", func(int64) int64 { return t.eng.Processed })
	}
	s.Gauge("tasks/executed", func(int64) int64 {
		var n int64
		for _, p := range a.pes {
			n += p.TasksExecuted
		}
		return n
	})
}

// Telemetry exposes the instrumentation bundle the chip records into,
// its engine owner's.
func (a *Accelerator) Telemetry() *Telemetry { return a.tel }

// arm schedules the next sampling epoch unless one is pending or there
// is no sampler; every chip's Start calls it, so the first to start arms
// the engine's one tick.
func (t *Telemetry) arm() {
	if t.Sampler == nil || t.armed {
		return
	}
	t.armed = true
	t.eng.PostAfter(sim.Time(t.Sampler.Interval()), t, 0, nil)
}

// Act is the sampling tick (sim.Actor): fold every attached cache's
// hits, sample every gauge once, and re-arm while the owner is busy.
func (t *Telemetry) Act(int, any) {
	t.armed = false
	t.fold()
	t.Sampler.Sample(int64(t.eng.Now()))
	if t.busy() {
		t.arm()
	}
}

// fold brings the cache-latency histograms up to date with the hits
// counted since the last fold (see mem.Cache.FoldHits).
func (t *Telemetry) fold() {
	for _, c := range t.caches {
		c.FoldHits()
	}
}

// Series folds the last hits into the digests and snapshots the run's
// series, nil without a sampler; the owner calls it once the run ends.
func (t *Telemetry) Series() *telemetry.TimeSeries {
	t.fold()
	if t.Sampler == nil {
		return nil
	}
	return t.Sampler.Snapshot()
}
