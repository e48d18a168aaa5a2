// Package accel assembles the full accelerator of §3.1: a centralized
// system scheduler, multiple PEs, a shared L2 cache and DRAM behind a NoC.
// It drives whole-application simulations for any of the scheduling
// schemes and implements the system-level halves of the two Shogun
// optimizations: load-imbalance detection + task-tree splitting (§4.1)
// and the search-tree-merging decision logic (§4.2).
package accel

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"shogun/internal/core"
	"shogun/internal/graph"
	"shogun/internal/mem"
	"shogun/internal/pattern"
	"shogun/internal/pe"
	"shogun/internal/policy"
	"shogun/internal/sim"
	"shogun/internal/task"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

// Scheme names a task scheduling scheme.
type Scheme string

// The schemes of Table 1. Fingers is an alias for pseudo-DFS, the
// baseline accelerator's scheduling.
const (
	SchemeShogun      Scheme = "shogun"
	SchemePseudoDFS   Scheme = "pseudo-dfs"
	SchemeFingers     Scheme = "fingers"
	SchemeDFS         Scheme = "dfs"
	SchemeBFS         Scheme = "bfs"
	SchemeParallelDFS Scheme = "parallel-dfs"
)

// Config parameterizes an accelerator instance (Table 3 defaults).
type Config struct {
	Scheme Scheme
	NumPEs int
	PE     pe.Config
	Tree   core.TreeConfig
	L2     mem.CacheConfig
	DRAM   mem.DRAMConfig
	NoC    mem.NoCConfig
	// TokensPerDepth is the address-token quota per search depth
	// (default: the PE execution width, §3.2.3).
	TokensPerDepth int
	// EnableSplitting turns on task-tree splitting (Shogun only).
	EnableSplitting bool
	// EnableMerging turns on search-tree merging (Shogun only).
	EnableMerging bool
	// MaxHelpersPerSplit caps idle PEs assigned to one busy PE (§4.1
	// uses 4, with multi-round rebalancing).
	MaxHelpersPerSplit int
	// BalancePeriod is the imbalance-detection cadence once all roots
	// are dispatched.
	BalancePeriod sim.Time
	// MergePeriod is the merging-decision cadence.
	MergePeriod sim.Time
	// Deadline aborts runaway simulations (0 = none, simulated cycles).
	Deadline sim.Time
	// MaxEvents aborts runs that process more than this many events
	// (0 = none) — the event-count watchdog budget.
	MaxEvents int64
	// MaxWall aborts runs exceeding this real elapsed time (0 = none).
	MaxWall time.Duration
	// WatchdogPoll is the cooperative-checkpoint interval in events for
	// context cancellation and wall-clock checks (0 = sim default).
	WatchdogPoll int64
	// Tracer, when set, receives one event per completed task on any PE.
	Tracer trace.Tracer
	// Perturb, when set, jitters FU/DRAM/NoC pool service times (the
	// chaos harness's fault-injection hook; not serialized).
	Perturb sim.Perturber `json:"-"`
	// ForceConservative pins Shogun's conservative mode on and disables
	// the locality monitor (ablation knob).
	ForceConservative bool
	// SampleEvery, when > 0, turns on the telemetry epoch sampler: every
	// SampleEvery cycles the run snapshots its live gauges (per-PE
	// residency, SPM/token/bunch occupancy, MSHR and DRAM queue depths,
	// NoC in-flight messages) and the latency histograms record every
	// access (cache hits are folded in at each epoch). Zero keeps the hot
	// path observation-free.
	SampleEvery sim.Time
	// SampleCap bounds retained sampler epochs (0 = telemetry default);
	// on overflow the ring decimates 2× and the epoch spacing doubles.
	SampleCap int
}

// DefaultConfig mirrors Table 3 for the given scheme.
func DefaultConfig(scheme Scheme) Config {
	pc := pe.DefaultConfig()
	return Config{
		Scheme: scheme,
		NumPEs: 10,
		PE:     pc,
		Tree:   core.DefaultTreeConfig(pc.Width),
		// Table 3 specifies a 4 MB L2 for the full-scale SNAP datasets;
		// the shared L2 is scaled with the dataset analogues (see
		// DESIGN.md) so the cacheable-vs-streaming axis is preserved:
		// wi/as/yo CSR data fits on chip, pa/lj/or does not.
		L2: mem.CacheConfig{
			Name:              "l2",
			SizeKB:            1024,
			Ways:              8,
			HitLat:            18,
			WriteAllocNoFetch: true,
		},
		DRAM:               mem.DefaultDRAMConfig(),
		NoC:                mem.NoCConfig{Links: 0 /* auto: 2 per PE */, HopLat: 4, FlitCycles: 1},
		TokensPerDepth:     pc.Width,
		MaxHelpersPerSplit: 4,
		BalancePeriod:      4096,
		MergePeriod:        4096,
	}
}

// Accelerator is one configured instance bound to a graph and schedule.
type Accelerator struct {
	cfg Config
	eng *sim.Engine
	w   *task.Workload

	dram *mem.DRAM
	l2   *mem.Cache
	noc  *mem.NoC
	pes  []*pe.PE
	toks []*policy.Tokens

	peRoots []*policy.SliceRoots
	// splitPending[i] reserves PE i as the helper of an in-flight split
	// transfer; splitsInFlight counts the set flags (the metrics pass
	// recounts them as an independent path).
	splitPending   []bool
	splitsInFlight int
	balanceArmed   bool
	mergeArmed     bool
	// dramLatAtRoll and dramAccessAtRoll are DRAM's latency and access
	// totals at the last merge check; the check's bandwidth window is
	// the delta since then.
	dramLatAtRoll    sim.Time
	dramAccessAtRoll int64
	tel              *Telemetry
	// idleScratch and busyScratch are balanceCheck's PE lists, kept
	// between checks so a check allocates nothing.
	idleScratch, busyScratch []*pe.PE
	// splitFree recycles delivered split messages.
	splitFree []*splitMsg

	Splits int64

	// MigratedOut / MigratedIn count chip-level split subtrees leaving /
	// entering this chip over a cluster interconnect (internal/cluster).
	// Zero outside cluster runs.
	MigratedOut int64
	MigratedIn  int64

	// OnChipIdle, when set, fires whenever a PE idles while the whole
	// chip is quiet (every PE idle, no pending work or split transfers) —
	// the cluster scheduler's work-stealing signal.
	OnChipIdle func()
}

// Actor ops for the accelerator's event callbacks (see sim.Engine.Post):
// the system scheduler's periodic loops — balance, merge — and split
// deliveries schedule without per-event closure allocation.
const (
	opBalanceCheck = iota
	opArmBalanceIfNeeded
	opMergeCheck
	opDeliverSplit
)

// Act dispatches the accelerator's event callbacks (sim.Actor). Split
// deliveries carry their *splitMsg; the periodic ticks carry nil.
func (a *Accelerator) Act(op int, arg any) {
	switch op {
	case opBalanceCheck:
		a.balanceCheck()
	case opArmBalanceIfNeeded:
		a.armBalanceIfNeeded()
	case opMergeCheck:
		a.mergeCheck()
	case opDeliverSplit:
		a.deliverSplit(arg.(*splitMsg))
	default:
		panic("accel: unknown actor op")
	}
}

// New builds an accelerator for graph g and schedule s: a private
// engine with its own telemetry bundle and candidate-buffer pool, every
// vertex a root.
func New(g *graph.Graph, s *pattern.Schedule, cfg Config) (*Accelerator, error) {
	roots := make([]graph.VertexID, g.NumVertices())
	for i := range roots {
		roots[i] = graph.VertexID(i)
	}
	eng := sim.NewEngine()
	var a *Accelerator
	tel, err := NewTelemetry(cfg, eng, func() bool { return !a.ChipIdle() })
	if err != nil {
		return nil, err
	}
	a, err = NewShared(g, s, cfg, eng, roots, tel, task.NewCandPool(g), 0)
	return a, err
}

// NewShared builds an accelerator on a caller-owned engine whose system
// scheduler deals exactly the given roots — the multi-chip cluster
// (internal/cluster) drives N chips on one shared clock, and its graph
// partitioner owns vertex placement. An empty roots list leaves the
// chip without work of its own. The chip records into the engine
// owner's telemetry bundle tel (nil when sampling is off) and draws its
// candidate buffers from the owner's pool cands (one per machine, built
// for g), its PEs numbered from firstPE machine-wide.
func NewShared(g *graph.Graph, s *pattern.Schedule, cfg Config, eng *sim.Engine, roots []graph.VertexID, tel *Telemetry, cands *task.CandPool, firstPE int) (*Accelerator, error) {
	if cfg.NumPEs < 1 {
		return nil, fmt.Errorf("accel: need at least one PE")
	}
	if cfg.Scheme == SchemeFingers {
		cfg.Scheme = SchemePseudoDFS
	}
	if cfg.ForceConservative {
		cfg.PE.MonitorPeriod = 0
	}
	if cfg.TokensPerDepth <= 0 {
		cfg.TokensPerDepth = cfg.PE.Width
	}
	if cfg.NoC.Links <= 0 {
		// Auto-size the fabric: two concurrent line transfers per PE,
		// matching a banked-L2 crossbar that scales with the PE array.
		cfg.NoC.Links = 2 * cfg.NumPEs
	}
	a := &Accelerator{
		cfg:  cfg,
		eng:  eng,
		w:    task.NewWorkload(g, s, cands),
		dram: mem.NewDRAM(cfg.DRAM),
		noc:  mem.NewNoC(cfg.NoC),
		tel:  tel,

		splitPending: make([]bool, cfg.NumPEs),
	}
	l2, err := mem.NewCache(cfg.L2, a.dram)
	if err != nil {
		return nil, err
	}
	a.l2 = l2
	// The system scheduler statically dispatches root vertices to PEs in
	// chunked round-robin order (§3.1: PEs explore "the assigned root
	// vertices"). Static assignment is what makes end-of-run load
	// imbalance possible — and task-tree splitting (§4.1) valuable.
	const rootChunk = 8
	count := make([]int, cfg.NumPEs) // sizes each PE's list exactly
	for base := 0; base < len(roots); base += rootChunk {
		count[(base/rootChunk)%cfg.NumPEs] += min(rootChunk, len(roots)-base)
	}
	a.peRoots = make([]*policy.SliceRoots, cfg.NumPEs)
	for i := range a.peRoots {
		a.peRoots[i] = &policy.SliceRoots{Vertices: make([]graph.VertexID, 0, count[i])}
	}
	for base := 0; base < len(roots); base += rootChunk {
		pe := (base / rootChunk) % cfg.NumPEs
		for v := base; v < base+rootChunk && v < len(roots); v++ {
			a.peRoots[pe].Vertices = append(a.peRoots[pe].Vertices, roots[v])
		}
	}

	for i := 0; i < cfg.NumPEs; i++ {
		l2path := a.noc.NewPath(a.l2)
		p, err := pe.New(i, a.eng, cfg.PE, a.w, l2path)
		if err != nil {
			return nil, err
		}
		toks := policy.NewTokens(i, cfg.NumPEs, s.Depth(), cfg.TokensPerDepth)
		pol, err := a.buildPolicy(p, toks, a.peRoots[i])
		if err != nil {
			return nil, err
		}
		p.SetPolicy(pol)
		if cfg.ForceConservative {
			p.ForceConservative(true)
		}
		p.Tracer = cfg.Tracer
		p.OnIdle = a.onPEIdle
		a.pes = append(a.pes, p)
		a.toks = append(a.toks, toks)
	}
	if err := a.fitAddressSpace(); err != nil {
		return nil, err
	}
	if cfg.Perturb != nil {
		a.installPerturb(cfg.Perturb)
	}
	if tel != nil {
		tel.attach(a, firstPE)
	}
	return a, nil
}

// fitAddressSpace checks once, at build time, that every line the chip
// can address lies within the tag range of its caches, so Access needs
// no check. Slot numbers are local*NumPEs + PE, with local below the
// PE's total token capacity. BFS's effectively unbounded capacities are
// first lowered to its share of the slots that fit: a frontier past the
// simulated address space waits for a token instead of aliasing tags.
func (a *Accelerator) fitAddressSpace() error {
	caches := []*mem.Cache{a.l2}
	for _, p := range a.pes {
		caches = append(caches, p.L1)
	}
	perPE := slotsInRange(a.w.Map, caches) / int64(a.cfg.NumPEs)
	capacity := 0
	for d := 1; d < a.toks[0].Depths(); d++ {
		if a.cfg.Scheme == SchemeBFS {
			share := max(perPE/int64(a.toks[0].Depths()-1), 1)
			for _, t := range a.toks {
				t.SetCap(d, int(min(int64(t.Cap(d)), share)))
			}
		}
		capacity += a.toks[0].Cap(d)
	}
	return checkAddressRange(a.w.Map, int64(capacity)*int64(a.cfg.NumPEs), caches)
}

// slotsInRange reports how many intermediate-set slots of m lie below
// the tag range of every cache (mem.Cache.MaxLine); -1 when the graph
// region alone does not.
func slotsInRange(m mem.AddressMap, caches []*mem.Cache) int64 {
	limit := int64(math.MaxInt64) >> mem.LineShift
	for _, c := range caches {
		limit = min(limit, c.MaxLine())
	}
	end := (limit + 1) << mem.LineShift // first byte past the range
	if m.InterBase-mem.LineBytes > end {
		return -1
	}
	return max(end-m.InterBase, 0) / m.SetStride
}

// checkAddressRange reports an error when m's graph region or its first
// slots intermediate-set slots reach a line past a cache's tag range.
func checkAddressRange(m mem.AddressMap, slots int64, caches []*mem.Cache) error {
	if fit := slotsInRange(m, caches); slots > fit {
		return fmt.Errorf("accel: address map %v with %d intermediate-set slots reaches past the caches' tag range (%d slots fit)", m, slots, max(fit, 0))
	}
	return nil
}

// installPerturb wires a service-time perturber into every contended
// pool the chaos harness targets: per-PE FUs, DRAM channels, NoC links.
func (a *Accelerator) installPerturb(pr sim.Perturber) {
	for _, p := range a.pes {
		p.SetPerturb(pr)
	}
	a.dram.SetPerturb(pr)
	a.noc.SetPerturb(pr)
}

func (a *Accelerator) buildPolicy(p *pe.PE, toks *policy.Tokens, roots policy.RootSource) (pe.Policy, error) {
	switch a.cfg.Scheme {
	case SchemeShogun:
		tc := a.cfg.Tree
		if a.cfg.EnableMerging {
			tc.MaxTrees = 2
		}
		t := core.NewTree(a.w, toks, roots, tc)
		if a.cfg.EnableMerging {
			// The second depth-1 bunch brings a second depth-1 token
			// allotment (§4.2 implementation note).
			toks.SetCap(1, a.cfg.TokensPerDepth*2)
		}
		return t, nil
	case SchemePseudoDFS:
		return policy.NewPseudoDFS(a.w, toks, roots, a.cfg.PE.Width), nil
	case SchemeDFS:
		return policy.NewDFS(a.w, toks, roots), nil
	case SchemeBFS:
		return policy.NewBFS(a.w, toks, roots), nil
	case SchemeParallelDFS:
		return policy.NewParallelDFS(a.w, toks, roots, a.cfg.PE.Width), nil
	default:
		return nil, fmt.Errorf("accel: unknown scheme %q", a.cfg.Scheme)
	}
}

// PEStats is the per-PE slice of a Result.
type PEStats struct {
	Tasks         int64
	Embeddings    int64
	IUUtil        float64
	L1HitRate     float64
	L1AvgLatency  float64
	Conservative  int64
	LastActive    sim.Time
	PeakTokens    int
	SlotOccupancy float64
	// Breakdown attributes this PE's slot-cycles (width × run-cycles)
	// to compute / memory-stall / scheduling / idle.
	Breakdown CycleBreakdown
	// ConservativeCycles is the PE's residency in conservative mode.
	ConservativeCycles sim.Time
}

// Result aggregates one simulated run.
type Result struct {
	Scheme     Scheme
	Cycles     sim.Time
	Embeddings int64
	Tasks      int64
	LeafTasks  int64

	IUUtil        float64 // all-PE average IU utilization
	SlotOccupancy float64 // average execution slots in use / width
	L1HitRate     float64
	L1AvgLatency  float64
	L2HitRate     float64
	DRAMReads     int64
	DRAMWrites    int64
	DRAMBandwidth float64 // channel utilization
	NoCLines      int64

	IntermediateLinesPerTask float64 // Table 2 cross-check

	// PerPE carries per-PE breakdowns (load-balance analysis).
	PerPE []PEStats

	Splits                  int64
	Merges                  int64
	ConservativeTransitions int64
	PeakLiveSets            int

	// Breakdown is the all-PE cycle attribution (sums each PE's).
	Breakdown CycleBreakdown

	Events int64

	// Telemetry is the sampler's time-series snapshot (nil when sampling
	// was off, and on a cluster's per-chip results).
	Telemetry *telemetry.TimeSeries `json:",omitempty"`
}

// Run simulates to completion and returns the result. It is
// RunContext with a background context; see there for the failure modes.
func (a *Accelerator) Run() (*Result, error) {
	return a.RunContext(context.Background())
}

// RunContext simulates to completion under the run governor. It fails
// with a wrapped sim sentinel when a watchdog budget (Deadline,
// MaxEvents, MaxWall) trips or ctx is cancelled at a cooperative
// checkpoint; with *sim.DeadlockError (carrying a resource/FSM
// snapshot) when the event queue drains while work remains; and any
// internal invariant panic is contained here and returned as a
// *sim.InvariantError with the diagnostic snapshot taken at recovery.
func (a *Accelerator) RunContext(ctx context.Context) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &sim.InvariantError{
				Op:         "accel: run",
				PanicValue: r,
				Stack:      string(debug.Stack()),
				Snapshot:   a.snapshot(),
			}
		}
	}()
	a.Start()
	if err := a.eng.RunGoverned(ctx, a.Budget()); err != nil {
		return nil, fmt.Errorf("accel: %w", err)
	}
	if err := a.Drained(); err != nil {
		return nil, err
	}
	if err := a.VerifyMetrics(); err != nil {
		return nil, fmt.Errorf("accel: %w", err)
	}
	res = a.Collect()
	res.Telemetry = a.tel.Series()
	return res, nil
}

// Start kicks every PE and arms the periodic merge loop and the
// telemetry tick without running the engine — the cluster driver starts
// all chips on the shared clock, then runs the engine itself. RunContext
// calls it internally.
func (a *Accelerator) Start() {
	for _, p := range a.pes {
		p.Kick()
	}
	a.armMerge()
	a.tel.arm()
}

// Budget assembles the run governor's budget from the config's watchdog
// knobs (the cluster driver applies the per-chip budgets to the shared
// engine run).
func (a *Accelerator) Budget() sim.Budget {
	return sim.Budget{
		MaxEvents:  a.cfg.MaxEvents,
		Deadline:   a.cfg.Deadline,
		MaxWall:    a.cfg.MaxWall,
		PollEvents: a.cfg.WatchdogPoll,
	}
}

// Drained verifies no PE holds unfinished work after the event queue
// emptied; a stuck policy surfaces as *sim.DeadlockError with the
// chip's diagnostic snapshot.
func (a *Accelerator) Drained() error {
	for _, p := range a.pes {
		if p.HasWork() {
			return &sim.DeadlockError{Op: "accel: run", Snapshot: a.snapshot()}
		}
	}
	return nil
}

// ChipIdle reports whether the whole chip is quiet: every PE idle with
// no pending work and no split transfer in flight. The cluster scheduler
// treats a quiet chip as a work-stealing helper.
func (a *Accelerator) ChipIdle() bool {
	for _, p := range a.pes {
		if !p.Idle() || p.HasWork() {
			return false
		}
	}
	return a.splitsInFlight == 0
}

// snapshot captures the diagnostic state attached to invariant and
// deadlock errors: engine progress, every PE's slot/SPM semaphores with
// their waiter queues, and per-PE notes covering the FSM census and
// address-token occupancy.
func (a *Accelerator) snapshot() *sim.Snapshot {
	s := a.eng.Snapshot()
	for i, p := range a.pes {
		s.Resources = append(s.Resources, p.Slots.Snap(), p.SPM.Snap())
		note := fmt.Sprintf("pe%d: idle=%t hasWork=%t conservative=%t lastActive=%d tasks=%d tokens=%v",
			i, p.Idle(), p.HasWork(), p.Conservative(), p.LastActive,
			p.TasksExecuted, a.toks[i].InUseByDepth())
		if t, ok := p.Policy().(*core.Tree); ok {
			note += " tree{" + t.StateSummary() + "}"
		}
		s.Notes = append(s.Notes, note)
	}
	return s
}

// CheckConservation verifies the post-run resource invariants the chaos
// suite asserts: every execution slot and SPM line released, every
// address token returned. A non-nil error names each leaked resource.
func (a *Accelerator) CheckConservation() error {
	var leaks []string
	for i, p := range a.pes {
		if n := p.Slots.InUse(); n != 0 {
			leaks = append(leaks, fmt.Sprintf("pe%d: %d execution slot(s) held", i, n))
		}
		if n := p.Slots.Waiters(); n != 0 {
			leaks = append(leaks, fmt.Sprintf("pe%d: %d slot waiter(s) stranded", i, n))
		}
		if n := p.SPM.InUse(); n != 0 {
			leaks = append(leaks, fmt.Sprintf("pe%d: %d SPM line(s) held", i, n))
		}
		if n := p.SPM.Waiters(); n != 0 {
			leaks = append(leaks, fmt.Sprintf("pe%d: %d SPM waiter(s) stranded", i, n))
		}
		if n := a.toks[i].TotalInUse(); n != 0 {
			leaks = append(leaks, fmt.Sprintf("pe%d: %d address token(s) held %v", i, n, a.toks[i].InUseByDepth()))
		}
	}
	if leaks == nil {
		return nil
	}
	return fmt.Errorf("accel: resource leak(s) after run: %v", leaks)
}

// Collect aggregates the chip's post-run Result (exposed for the
// cluster driver, which runs the shared engine itself). It leaves
// Telemetry nil: the series belongs to the engine's owner, which takes
// it from its bundle (Telemetry.Series).
func (a *Accelerator) Collect() *Result {
	// Cycles measures work completion: the latest task completion across
	// PEs. The engine clock itself can drift past it on idle monitor
	// events (balance/merge checks), which must not count as runtime.
	end := a.endTime()
	r := &Result{Scheme: a.cfg.Scheme, Cycles: end, Events: a.eng.Processed}
	var iuBusy, iuCap sim.Time
	var l1Hits, l1Miss, l1LatSum, l1Accesses int64
	var slotSum float64
	var interLines int64
	for i, p := range a.pes {
		ps := PEStats{
			Tasks:         p.TasksExecuted,
			Embeddings:    p.Embeddings,
			IUUtil:        p.IUPool.Utilization(r.Cycles),
			L1HitRate:     p.L1.HitRate(),
			Conservative:  p.ConservativeTransitions,
			LastActive:    p.LastActive,
			PeakTokens:    a.toks[i].Peak(),
			SlotOccupancy: p.Slots.AvgOccupancy(r.Cycles) / float64(a.cfg.PE.Width),

			Breakdown:          a.breakdownFor(i, end),
			ConservativeCycles: p.ConservResidency(end),
		}
		r.Breakdown.Add(ps.Breakdown)
		ps.L1AvgLatency = sim.Ratio(p.L1.LatSum, p.L1.Accesses)
		r.PerPE = append(r.PerPE, ps)
		r.Embeddings += p.Embeddings
		r.Tasks += p.TasksExecuted
		r.LeafTasks += p.LeafTasks
		iuBusy += p.IUPool.Busy()
		iuCap += r.Cycles * sim.Time(a.cfg.PE.IUs)
		l1Hits += p.L1.Hits
		l1Miss += p.L1.Misses
		l1LatSum += p.L1.LatSum
		l1Accesses += p.L1.Accesses
		slotSum += p.Slots.AvgOccupancy(r.Cycles) / float64(a.cfg.PE.Width)
		interLines += p.IntermediateIn
		r.ConservativeTransitions += p.ConservativeTransitions
		if t, ok := p.Policy().(*core.Tree); ok {
			r.Merges += t.MergeFeeds
		}
		if pk := a.toks[i].Peak(); pk > r.PeakLiveSets {
			r.PeakLiveSets = pk
		}
	}
	if iuCap > 0 {
		r.IUUtil = float64(iuBusy) / float64(iuCap)
	}
	r.SlotOccupancy = slotSum / float64(len(a.pes))
	r.L1HitRate = sim.Ratio(l1Hits, l1Hits+l1Miss)
	r.L1AvgLatency = sim.Ratio(l1LatSum, l1Accesses)
	r.L2HitRate = a.l2.HitRate()
	r.DRAMReads = a.dram.Reads
	r.DRAMWrites = a.dram.Writes
	r.DRAMBandwidth = a.dram.BandwidthUtilization(r.Cycles)
	r.NoCLines = a.noc.LinesMoved
	if r.Tasks+r.LeafTasks > 0 {
		r.IntermediateLinesPerTask = float64(interLines) / float64(r.Tasks+r.LeafTasks)
	}
	r.Splits = a.Splits
	return r
}

// PEs exposes the PEs (tests, harness).
func (a *Accelerator) PEs() []*pe.PE { return a.pes }

// L2 exposes the shared L2 cache (tests).
func (a *Accelerator) L2() *mem.Cache { return a.l2 }

// Engine exposes the event engine (chaos harness, tests).
func (a *Accelerator) Engine() *sim.Engine { return a.eng }

// Workload exposes the bound workload.
func (a *Accelerator) Workload() *task.Workload { return a.w }
