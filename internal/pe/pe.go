// Package pe models one processing element: the five-unit pipeline of
// Fig. 4(a) (decoder, dispatch, issue, FUs, spawn), the private L1 cache
// and scratchpad, the divider/intersection-unit pools, execution-width
// slots, and the locality monitor that drives Shogun's conservative mode.
//
// The PE is policy-agnostic: a Policy supplies tasks in whatever order its
// scheduling scheme allows (DFS, BFS, pseudo-DFS, parallel-DFS, or the
// Shogun task tree) and is notified on completion to spawn/extend.
package pe

import (
	"fmt"

	"shogun/internal/mem"
	"shogun/internal/sim"
	"shogun/internal/task"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

// Config collects the PE parameters of Table 3.
type Config struct {
	Width    int // task execution width (concurrent tasks)
	Dividers int
	IUs      int

	IUCyclesPerPair      sim.Time // IU occupancy per segment pair
	DividerCyclesPerLine sim.Time // divider occupancy per input line

	DecodeLat   sim.Time
	DispatchLat sim.Time
	IssueLat    sim.Time
	// WritebackPerLine is the writeback-unit occupancy per output line.
	WritebackPerLine sim.Time
	// SpawnBase + SpawnPerChild×k is the spawn-unit occupancy for
	// generating k children. LeafCycles is the flat in-slot cost of
	// consuming the final candidate set as a count (size extraction and
	// boundary searches; counting workloads never enumerate the last
	// level).
	SpawnBase     sim.Time
	SpawnPerChild sim.Time
	LeafCycles    sim.Time

	SPMLines int

	L1 mem.CacheConfig

	// MonitorPeriod is the locality-monitor sampling window; the
	// conservative-mode thresholds are Table 3's transition conditions.
	MonitorPeriod     sim.Time
	ConservLatThresh  float64 // L1 window avg latency > this (cycles)
	ConservUtilThresh float64 // IU window utilization < this
}

// DefaultConfig mirrors Table 3.
func DefaultConfig() Config {
	return Config{
		Width:                8,
		Dividers:             12,
		IUs:                  24,
		IUCyclesPerPair:      4,
		DividerCyclesPerLine: 1,
		DecodeLat:            2,
		DispatchLat:          2,
		IssueLat:             1,
		WritebackPerLine:     1,
		SpawnBase:            2,
		SpawnPerChild:        1,
		LeafCycles:           2,
		SPMLines:             256,
		L1: mem.CacheConfig{
			Name:              "l1",
			SizeKB:            32,
			Ways:              4,
			HitLat:            2,
			WriteAllocNoFetch: true,
			MSHRs:             8,
		},
		MonitorPeriod: 2048,
		// Table 3 uses "L1 average access latency > 50 cycles"; the
		// threshold is rescaled to this model's miss penalty (~30-40
		// cycles to L2 vs the paper's deeper hierarchy) so it fires at
		// a comparable miss ratio (~25-30%).
		ConservLatThresh:  10,
		ConservUtilThresh: 0.5,
	}
}

// SpawnResult tells the PE what a completing task did in the spawn unit.
type SpawnResult struct {
	// Spawned is the number of child/extend tasks materialized now.
	Spawned int
	// Pruned is the number of candidate fetches abandoned by symmetry
	// pruning (they still occupy the spawn unit briefly).
	Pruned int
	// Leaves is the number of aggregated leaf tasks counted (for
	// counting workloads the final level is consumed as a set size in
	// the datapath, not enumerated).
	Leaves int
	// Embeddings found by this completion.
	Embeddings int64
}

// Policy is a task scheduling scheme driving one PE.
type Policy interface {
	// Name identifies the scheme.
	Name() string
	// Next returns the next task to execute together with the storage
	// slot for its output set, or ok=false when nothing is runnable
	// right now (barriers, empty tree, no tokens...). The PE calls it
	// only when an execution slot is free.
	Next(now sim.Time) (n *task.Node, slot int, ok bool)
	// OnComplete notifies the policy that a task finished its compute
	// and writeback; the policy updates its structures (spawn children,
	// extend, release barriers, recycle tokens) and reports the spawn-
	// unit work.
	OnComplete(n *task.Node, now sim.Time) SpawnResult
	// Pending reports whether the policy still has unfinished work
	// (excluding future roots it might pull).
	Pending() bool
	// SetConservative informs the policy of the locality monitor's
	// conservative-mode decision (§3.2.3). Only Shogun reacts.
	SetConservative(on bool)
}

// MonitorSample is one locality-monitor observation, exported to the
// accelerator for search-tree-merging decisions.
type MonitorSample struct {
	L1AvgLat  float64
	L1HasData bool
	IUUtil    float64
}

// Actor ops for the PE's event callbacks (see sim.Engine.Post): the PE
// is a sim.Actor so its pipeline stages schedule without per-event
// closure allocation. Stage events carry their *inflight record as arg.
const (
	peOpKick = iota
	peOpDispatch
	peOpFinish
	peOpRelease
	peOpMonitor
)

// inflight is the per-task pipeline record threaded through
// execute → dispatch → finish → release as the event argument. Records
// are free-listed on the PE, so a steady-state run allocates none; the
// embedded reads array backs the task profile's Reads list (a fetch plan
// wider than the array falls back to an append allocation, which no
// shipped schedule triggers).
type inflight struct {
	next       *inflight
	n          *task.Node
	prof       task.Profile
	spmNeed    int
	slotStart  sim.Time
	stageStart sim.Time
	reads      [4]task.Read
}

// PE is one processing element.
type PE struct {
	ID  int
	Eng *sim.Engine
	Cfg Config

	L1     *mem.Cache // intermediate data
	L2Path mem.Level  // CSR data (bypasses L1)

	Slots *sim.Semaphore
	SPM   *sim.Semaphore

	decodeU, dispatchU, issueU, writebackU, spawnU *sim.Pool
	DivPool, IUPool                                *sim.Pool

	policy Policy
	w      *task.Workload
	flFree *inflight // inflight-record free list

	kickPending  bool
	conservative bool
	monitorOn    bool
	// The monitor's window baselines: the IU busy time and the L1's
	// latency and access totals at the last roll. A window is the delta
	// of each total since then.
	iuBusyAtRoll   sim.Time
	l1LatAtRoll    sim.Time
	l1AccessAtRoll int64

	// Stats. The seven Phase* sums are an exact partition of each
	// task's slot residency: every phase span starts where the previous
	// one ended, so per PE
	//
	//	ΣPhase* == ΣSlotResidency == Slots.OccupancyIntegral(end)
	//
	// — the cycle-attribution conservation law metrics.Verify checks.
	// Each sum gains one span per executed task, so once the PE drains
	// a phase's average is its sum over TasksExecuted.
	LastActive     sim.Time // completion time of the latest finished task
	PhaseDecode    sim.Time
	PhaseSPM       sim.Time
	PhaseFetch     sim.Time
	PhaseCompute   sim.Time
	PhaseWB        sim.Time
	PhaseSpawnWait sim.Time
	PhaseLeaf      sim.Time
	SlotResidency  sim.Time
	TasksExecuted  int64
	LeafTasks      int64
	PrunedFetches  int64
	Embeddings     int64
	IntermediateIn int64 // intermediate input lines (Table 2 numerator)
	// CSRLineReads counts graph-adjacency cache lines fetched over the
	// L2 path (every one crosses the NoC and lands in the L2).
	CSRLineReads int64
	isIdle       bool
	// Conservative-mode residency: conservEnter is the entry timestamp
	// while in the mode, ConservCycles the accumulated cycles of
	// completed conservative episodes.
	conservEnter  sim.Time
	ConservCycles sim.Time

	// OnIdle, when set, is invoked (once per transition) when the PE has
	// no running tasks and its policy has nothing runnable. The
	// accelerator uses it for root feeding and load-balance checks.
	OnIdle func(p *PE)
	// Tracer, when set, receives one event per completed task.
	Tracer trace.Tracer
	// LifetimeHist and QueueWaitHist, when non-nil, receive each task's
	// slot residency (dispatch→spawn-done) and its SPM+dispatch wait span.
	// Nil histograms make the observations free (nil-receiver no-ops).
	LifetimeHist  *telemetry.Histogram
	QueueWaitHist *telemetry.Histogram
	// ConservativeTransitions counts monitor-driven mode switches.
	ConservativeTransitions int64
	// LastSample is the most recent monitor observation.
	LastSample MonitorSample
}

// New builds a PE. l2path serves CSR reads and L1 misses are routed to the
// provided parent level via the L1 cache built here.
func New(id int, eng *sim.Engine, cfg Config, w *task.Workload, l2path mem.Level) (*PE, error) {
	l1cfg := cfg.L1
	l1cfg.Name = fmt.Sprintf("pe%d-l1", id)
	l1, err := mem.NewCache(l1cfg, l2path)
	if err != nil {
		return nil, err
	}
	p := &PE{
		ID:         id,
		Eng:        eng,
		Cfg:        cfg,
		L1:         l1,
		L2Path:     l2path,
		Slots:      sim.NewSemaphore(fmt.Sprintf("pe%d-slots", id), cfg.Width),
		SPM:        sim.NewSemaphore(fmt.Sprintf("pe%d-spm", id), cfg.SPMLines),
		decodeU:    sim.NewPool(fmt.Sprintf("pe%d-decode", id), 1),
		dispatchU:  sim.NewPool(fmt.Sprintf("pe%d-dispatch", id), 1),
		issueU:     sim.NewPool(fmt.Sprintf("pe%d-issue", id), 1),
		writebackU: sim.NewPool(fmt.Sprintf("pe%d-wb", id), 1),
		spawnU:     sim.NewPool(fmt.Sprintf("pe%d-spawn", id), 1),
		DivPool:    sim.NewPool(fmt.Sprintf("pe%d-div", id), cfg.Dividers),
		IUPool:     sim.NewPool(fmt.Sprintf("pe%d-iu", id), cfg.IUs),
		w:          w,
		isIdle:     true,
	}
	return p, nil
}

// SetPolicy installs the scheduling policy (must be called before Kick).
func (p *PE) SetPolicy(pol Policy) { p.policy = pol }

// Policy returns the installed policy.
func (p *PE) Policy() Policy { return p.policy }

// Workload returns the shared workload.
func (p *PE) Workload() *task.Workload { return p.w }

// Conservative reports the monitor's current mode.
func (p *PE) Conservative() bool { return p.conservative }

// ForceConservative flips conservative mode outside the monitor — the
// chaos harness's fault injection. It follows the same transition
// protocol as monitorTick, so the policy sees a well-formed mode change;
// the monitor may flip the mode back at its next tick.
func (p *PE) ForceConservative(on bool) {
	if p.conservative == on {
		return
	}
	p.noteConservFlip(on)
	p.conservative = on
	p.ConservativeTransitions++
	p.policy.SetConservative(on)
	if !on {
		p.Kick()
	}
}

// SetPerturb installs a service-time perturber on the PE's contended
// functional-unit pools (dividers and intersection units).
func (p *PE) SetPerturb(pr sim.Perturber) {
	p.DivPool.SetPerturb(pr)
	p.IUPool.SetPerturb(pr)
}

// Act dispatches the PE's event callbacks (sim.Actor). Stage ops carry
// the task's *inflight record; kick and monitor ops carry nil.
func (p *PE) Act(op int, arg any) {
	switch op {
	case peOpKick:
		p.trySchedule()
	case peOpDispatch:
		p.stageDispatch(arg.(*inflight))
	case peOpFinish:
		p.finish(arg.(*inflight))
	case peOpRelease:
		p.release(arg.(*inflight))
	case peOpMonitor:
		p.monitorTick()
	default:
		panic("pe: unknown actor op")
	}
}

func (p *PE) allocInflight() *inflight {
	fl := p.flFree
	if fl != nil {
		p.flFree = fl.next
		fl.next = nil
		return fl
	}
	return &inflight{}
}

func (p *PE) recycleInflight(fl *inflight) {
	fl.n = nil
	fl.prof = task.Profile{}
	fl.next = p.flFree
	p.flFree = fl
}

// Kick schedules a scheduling attempt. Safe to call repeatedly.
func (p *PE) Kick() {
	if p.kickPending {
		return
	}
	p.kickPending = true
	p.Eng.PostAfter(0, p, peOpKick, nil)
}

func (p *PE) trySchedule() {
	p.kickPending = false
	now := p.Eng.Now()
	for p.Slots.Available() > 0 {
		n, slot, ok := p.policy.Next(now)
		if !ok {
			break
		}
		if !p.Slots.TryAcquire(now, 1) {
			panic("pe: slot vanished")
		}
		p.noteBusy()
		p.execute(n, slot)
	}
	p.ensureMonitor()
	p.maybeIdle()
}

func (p *PE) noteBusy() {
	p.isIdle = false
}

func (p *PE) maybeIdle() {
	if p.Slots.InUse() == 0 && !p.isIdle {
		p.isIdle = true
		if p.OnIdle != nil {
			p.OnIdle(p)
		}
	} else if p.Slots.InUse() == 0 && p.isIdle && p.OnIdle != nil {
		// Already idle but re-kicked with no work: let the accelerator
		// reconsider (e.g. a split may now be possible).
		p.OnIdle(p)
	}
}

// Idle reports whether no task occupies a slot.
func (p *PE) Idle() bool { return p.Slots.InUse() == 0 }

// HasWork reports whether the policy holds unfinished work.
func (p *PE) HasWork() bool { return p.policy.Pending() }

// execute plays one task through the pipeline. The data-side effects
// (candidate set computation) happen immediately; timing is modeled with
// busy-until pools and a completion event.
func (p *PE) execute(n *task.Node, slot int) {
	now := p.Eng.Now()
	fl := p.allocInflight()
	fl.n = n
	fl.slotStart = now
	fl.prof = p.w.ExecuteReuse(n, slot, fl.reads[:0])
	p.TasksExecuted++
	p.IntermediateIn += int64(fl.prof.IntermediateLines)

	// Decode.
	tDec := p.decodeU.Acquire(now, 1) + p.Cfg.DecodeLat
	p.PhaseDecode += tDec - now

	// Dispatch: allocate SPM lines for inputs + output, possibly
	// waiting. Large sets do not reserve their whole footprint: the
	// pipeline streams them through the SPM in multiple rounds (§3.1,
	// following FINGERS), so a task's reservation is capped at its
	// slot's streaming window and SPM pressure never serializes the PE
	// below its execution width.
	spmNeed := fl.prof.InputLines + fl.prof.OutputLines
	if window := p.Cfg.SPMLines / p.Cfg.Width; spmNeed > window {
		spmNeed = window
	}
	fl.spmNeed = spmNeed
	fl.stageStart = tDec
	p.Eng.Post(tDec, p, peOpDispatch, fl)
}

// stageDispatch runs the dispatch stage. fl.stageStart is the
// decode-stage completion time: SPM-wait retries re-enter here at later
// times, and the SPM phase must be charged from the original stage entry
// so the phase sums stay an exact partition of slot residency.
func (p *PE) stageDispatch(fl *inflight) {
	now := p.Eng.Now()
	if fl.spmNeed > 0 && !p.SPM.AcquireOrWait(now, fl.spmNeed, p, peOpDispatch, fl) {
		return // re-entered when SPM frees
	}
	prof := &fl.prof
	tDisp := p.dispatchU.Acquire(now, 1) + p.Cfg.DispatchLat
	p.PhaseSPM += tDisp - fl.stageStart
	p.QueueWaitHist.Observe(int64(tDisp - fl.stageStart))

	// Fetch inputs in parallel: CSR reads bypass L1 (L2 path),
	// intermediate reads go through L1.
	dataReady := tDisp
	for _, r := range prof.Reads {
		var done sim.Time
		if r.Class == task.ReadCSR {
			done = mem.AccessRange(p.L2Path, tDisp, r.Addr, r.Bytes, false)
			p.CSRLineReads += mem.Lines(r.Addr, r.Bytes)
		} else {
			done = mem.AccessRange(p.L1, tDisp, r.Addr, r.Bytes, false)
		}
		if done > dataReady {
			dataReady = done
		}
	}

	p.PhaseFetch += dataReady - tDisp

	// Issue. The issue/writeback/spawn units sustain one operation per
	// cycle — far above task arrival rates — so they are modeled as
	// latency (their pools only account busy cycles for utilization
	// reporting). Reserving them with busy-until state at non-monotone
	// timestamps would create false head-of-line serialization.
	p.issueU.Acquire(dataReady, 1)
	tIssue := dataReady + p.Cfg.IssueLat

	// Compute: dividers segment the inputs (one slot per input line),
	// IUs process the segment pairs (one slot each). Both banks are
	// reserved as a batch at a common issue time — exactly equivalent
	// to per-item greedy acquisition, computed in closed form.
	tComp := tIssue
	if prof.SegPairs > 0 {
		divDone := p.DivPool.AcquireBatch(tIssue, p.Cfg.DividerCyclesPerLine, prof.InputLines)
		tComp = p.IUPool.AcquireBatch(divDone, p.Cfg.IUCyclesPerPair, prof.SegPairs)
	}

	// Writeback: store the output set to L1 (intermediate region).
	tWB := tComp
	if prof.OutBytes > 0 && fl.n.Slot >= 0 {
		occ := p.Cfg.WritebackPerLine * sim.Time(prof.OutputLines)
		p.writebackU.Acquire(tComp, occ)
		wbDone := mem.AccessRange(p.L1, tComp, prof.OutAddr, prof.OutBytes, true)
		if wbDone > tWB {
			tWB = wbDone
		}
		if tComp+occ > tWB {
			tWB = tComp + occ
		}
	}

	// Compute is charged from dataReady so the issue latency is part of
	// the compute span (the phase partition must be gap-free).
	p.PhaseCompute += tComp - dataReady
	p.PhaseWB += tWB - tComp
	p.Eng.Post(tWB, p, peOpFinish, fl)
}

func (p *PE) finish(fl *inflight) {
	now := p.Eng.Now()
	n := fl.n
	res := p.policy.OnComplete(n, now)
	p.Embeddings += res.Embeddings
	p.LeafTasks += int64(res.Leaves)
	p.PrunedFetches += int64(res.Pruned)

	// Child generation serializes through the spawn unit; aggregated
	// leaf-task processing runs within the completing task's execution
	// slot (leaf batches of different parents proceed in parallel across
	// the PE's width), consuming the final candidate set one 16-id line
	// per LeafCycles.
	// The spawn unit is a multi-stage pipeline: SpawnBase is its latency
	// (paid once per completion) while occupancy — and thus throughput —
	// is one slot per generated child. Extends (one sibling per
	// completion) and bunch spawns therefore cost the same per child.
	occ := p.Cfg.SpawnPerChild * sim.Time(res.Spawned)
	if occ < 1 {
		occ = 1
	}
	p.spawnU.Acquire(now, occ)
	tDone := now + occ + p.Cfg.SpawnBase
	p.PhaseSpawnWait += tDone - now
	leafStart := tDone
	if res.Leaves+res.Pruned > 0 {
		// Counting the final level is a size extraction plus symmetry/
		// distinctness boundary searches: flat cost, no enumeration.
		tDone += p.Cfg.LeafCycles
	}
	p.PhaseLeaf += tDone - leafStart

	p.SlotResidency += tDone - fl.slotStart
	p.LifetimeHist.Observe(int64(tDone - fl.slotStart))
	if tDone > p.LastActive {
		p.LastActive = tDone
	}
	if p.Tracer != nil {
		p.Tracer.TaskDone(trace.Event{
			PE: p.ID, TreeID: n.TreeID, Depth: n.Depth, Vertex: int32(n.Vertex),
			Start: fl.slotStart, Done: tDone, Leaves: res.Leaves,
		})
	}
	p.Eng.Post(tDone, p, peOpRelease, fl)
}

// release returns the task's SPM lines and execution slot and recycles
// its inflight record.
func (p *PE) release(fl *inflight) {
	now := p.Eng.Now()
	spmHeld := fl.spmNeed
	p.recycleInflight(fl)
	if spmHeld > 0 {
		p.SPM.Release(now, spmHeld)
	}
	p.Slots.Release(now, 1)
	p.Kick()
}

// ensureMonitor starts the periodic locality monitor while the PE is busy.
func (p *PE) ensureMonitor() {
	if p.monitorOn || p.Cfg.MonitorPeriod <= 0 {
		return
	}
	if p.Slots.InUse() == 0 && !p.policy.Pending() {
		return
	}
	p.monitorOn = true
	p.iuBusyAtRoll = p.IUPool.Busy()
	p.Eng.PostAfter(p.Cfg.MonitorPeriod, p, peOpMonitor, nil)
}

func (p *PE) monitorTick() {
	p.monitorOn = false

	// The L1 window rolls only here; ensureMonitor rolls only the IU's.
	n := p.L1.Accesses - p.l1AccessAtRoll
	avgLat, hasData := sim.Ratio(p.L1.LatSum-p.l1LatAtRoll, n), n > 0
	p.l1LatAtRoll, p.l1AccessAtRoll = p.L1.LatSum, p.L1.Accesses
	iuBusy := p.IUPool.Busy() - p.iuBusyAtRoll
	iuUtil := float64(iuBusy) / (float64(p.Cfg.MonitorPeriod) * float64(p.Cfg.IUs))
	if iuUtil > 1 {
		iuUtil = 1 // reservations extending beyond the window
	}
	p.LastSample = MonitorSample{L1AvgLat: avgLat, L1HasData: hasData, IUUtil: iuUtil}

	// Conservative-mode transition (Table 3): thrashing (high L1
	// latency) AND low PE throughput. Exit with hysteresis.
	if !p.conservative {
		if hasData && avgLat > p.Cfg.ConservLatThresh && iuUtil < p.Cfg.ConservUtilThresh {
			p.noteConservFlip(true)
			p.conservative = true
			p.ConservativeTransitions++
			p.policy.SetConservative(true)
		}
	} else {
		if !hasData || avgLat < 0.6*p.Cfg.ConservLatThresh {
			p.noteConservFlip(false)
			p.conservative = false
			p.ConservativeTransitions++
			p.policy.SetConservative(false)
			p.Kick()
		}
	}
	p.ensureMonitor()
}

// noteConservFlip accounts conservative-mode residency at a transition.
func (p *PE) noteConservFlip(on bool) {
	now := p.Eng.Now()
	if on {
		p.conservEnter = now
	} else {
		p.ConservCycles += now - p.conservEnter
	}
}

// ConservResidency reports total cycles spent in conservative mode
// through `end`, including a still-open episode.
func (p *PE) ConservResidency(end sim.Time) sim.Time {
	r := p.ConservCycles
	if p.conservative && end > p.conservEnter {
		r += end - p.conservEnter
	}
	return r
}

// IUUtilization reports all-time IU utilization over elapsed cycles.
func (p *PE) IUUtilization(elapsed sim.Time) float64 {
	return p.IUPool.Utilization(elapsed)
}

// DecodeUtil reports decode-unit occupancy (diagnostics).
func (p *PE) DecodeUtil(elapsed sim.Time) float64 { return p.decodeU.Utilization(elapsed) }

// DispatchUtil reports dispatch-unit occupancy (diagnostics).
func (p *PE) DispatchUtil(elapsed sim.Time) float64 { return p.dispatchU.Utilization(elapsed) }

// WritebackUtil reports writeback-unit occupancy (diagnostics).
func (p *PE) WritebackUtil(elapsed sim.Time) float64 { return p.writebackU.Utilization(elapsed) }

// SpawnUtil reports spawn-unit occupancy (diagnostics).
func (p *PE) SpawnUtil(elapsed sim.Time) float64 { return p.spawnU.Utilization(elapsed) }
