package accel

import (
	"fmt"

	"shogun/internal/core"
	"shogun/internal/metrics"
	"shogun/internal/sim"
)

// CycleBreakdown attributes a PE's slot-cycles (execution-slot capacity
// over the run: width × run-cycles) to four coarse categories. Compute
// is the issue+FU span of each task; MemStall covers SPM allocation
// waits, input fetches and output writebacks; Scheduling covers decode,
// spawn-unit and leaf-consumption work; Idle is unoccupied slot
// capacity. The categories partition width × run-cycles exactly — the
// identity metrics.Verify checks on every run.
type CycleBreakdown struct {
	Compute    int64
	MemStall   int64
	Scheduling int64
	Idle       int64
}

// Total sums the attributed slot-cycles.
func (b CycleBreakdown) Total() int64 {
	return b.Compute + b.MemStall + b.Scheduling + b.Idle
}

// Busy sums the non-idle categories (== total slot residency).
func (b CycleBreakdown) Busy() int64 {
	return b.Compute + b.MemStall + b.Scheduling
}

// Add folds another attribution into b (the all-PE and all-chip sums).
func (b *CycleBreakdown) Add(o CycleBreakdown) {
	b.Compute += o.Compute
	b.MemStall += o.MemStall
	b.Scheduling += o.Scheduling
	b.Idle += o.Idle
}

// breakdownFor derives one PE's cycle attribution at run end.
func (a *Accelerator) breakdownFor(i int, end sim.Time) CycleBreakdown {
	p := a.pes[i]
	residency := p.SlotResidency
	return CycleBreakdown{
		Compute:    p.PhaseCompute,
		MemStall:   p.PhaseSPM + p.PhaseFetch + p.PhaseWB,
		Scheduling: p.PhaseDecode + p.PhaseSpawnWait + p.PhaseLeaf,
		Idle:       int64(end)*int64(a.cfg.PE.Width) - residency,
	}
}

// endTime reports the run's completion cycle (latest task completion
// across PEs; the engine clock may drift past it on idle monitor events).
func (a *Accelerator) endTime() sim.Time {
	var end sim.Time
	for _, p := range a.pes {
		if p.LastActive > end {
			end = p.LastActive
		}
	}
	return end
}

// Metrics snapshots every hardware counter of the run into a
// metrics.Registry and declares the conservation invariants tying them
// together. Call after the simulation completes; Verify on the returned
// registry is the correctness oracle the chaos and conformance suites
// (and, by default, every Run) assert.
func (a *Accelerator) Metrics() *metrics.Registry {
	end := a.endTime()
	reg := metrics.NewRegistry()

	eng := reg.Family("engine")
	eng.Counter("events", a.eng.Processed)
	eng.Counter("final-cycle", int64(end))
	eng.Eq("event queue drained", int64(a.eng.Pending()), 0)

	// Per-PE cycle attribution: the seven pipeline phases partition each
	// task's slot residency; residency matches the slot semaphore's
	// occupancy integral (two independent measurement paths); and the
	// four-way breakdown partitions width × run-cycles exactly.
	var l1Fills, l1WBs, csrLines int64
	var splitsReceived, adopted int64
	for i, p := range a.pes {
		f := reg.Family(fmt.Sprintf("pe%d/cycles", i))
		decode := f.Counter("decode", p.PhaseDecode)
		spm := f.Counter("spm+dispatch", p.PhaseSPM)
		fetch := f.Counter("fetch", p.PhaseFetch)
		compute := f.Counter("compute", p.PhaseCompute)
		wb := f.Counter("writeback", p.PhaseWB)
		spawn := f.Counter("spawn", p.PhaseSpawnWait)
		leaf := f.Counter("leaf", p.PhaseLeaf)
		residency := f.Counter("slot-residency", p.SlotResidency)
		slotInt := f.Counter("slot-occupancy-integral", int64(p.Slots.OccupancyIntegral(end)))
		f.Sum("phases partition slot residency", residency,
			decode, spm, fetch, compute, wb, spawn, leaf)
		f.Eq("slot residency == occupancy integral", residency, slotInt)
		capacity := int64(end) * int64(a.cfg.PE.Width)
		f.LE("busy slot-cycles ≤ width×cycles", residency, capacity)
		bd := a.breakdownFor(i, end)
		f.Counter("attr-compute", bd.Compute)
		f.Counter("attr-memstall", bd.MemStall)
		f.Counter("attr-scheduling", bd.Scheduling)
		f.Counter("attr-idle", bd.Idle)
		f.Sum("attribution partitions width×cycles", capacity,
			bd.Compute, bd.MemStall, bd.Scheduling, bd.Idle)
		f.Eq("slot units acquired == released", p.Slots.UnitsAcquired(), p.Slots.UnitsReleased())
		f.Eq("spm units acquired == released", p.SPM.UnitsAcquired(), p.SPM.UnitsReleased())
		f.Eq("no slot waiters at end", int64(p.Slots.Waiters()), 0)
		f.Eq("no spm waiters at end", int64(p.SPM.Waiters()), 0)
		conserv := f.Counter("conservative-cycles", int64(p.ConservResidency(end)))
		f.LE("conservative residency ≤ run cycles", conserv, int64(end))
		var parity int64
		if p.Conservative() {
			parity = 1
		}
		f.Eq("conservative transition parity", p.ConservativeTransitions%2, parity)

		tf := reg.Family(fmt.Sprintf("pe%d/tasks", i))
		executed := tf.Counter("executed", p.TasksExecuted)
		tf.Counter("leaf-tasks", p.LeafTasks)
		tf.Counter("pruned-fetches", p.PrunedFetches)
		tf.Counter("embeddings", p.Embeddings)
		tf.Eq("roots dealt == roots fed", int64(len(a.peRoots[i].Vertices)), int64(a.peRoots[i].Fed()))
		tok := a.toks[i]
		tf.Eq("tokens acquired == released + held", tok.Acquired(), tok.Released()+int64(tok.TotalInUse()))
		tf.Eq("no tokens held at end", int64(tok.TotalInUse()), 0)
		if t, ok := p.Policy().(*core.Tree); ok {
			tf.Counter("fsm-ready→executing", t.ReadyToExecuting)
			tf.Counter("fsm-executing→resting", t.ExecutingToResting)
			tf.Counter("fsm-retired", t.RetiredEntries)
			tf.Counter("quiesce-events", t.QuiesceEvents)
			tf.Eq("ready→executing == executed", t.ReadyToExecuting, executed)
			splitsReceived += t.SplitsReceived
			adopted += t.SplitsReceived
		}

		l1 := p.L1
		mf := reg.Family(fmt.Sprintf("pe%d/l1", i))
		acc := mf.Counter("accesses", l1.Accesses)
		hits := mf.Counter("hits", l1.Hits)
		miss := mf.Counter("misses", l1.Misses)
		fills := mf.Counter("miss-fetches", l1.MissFetches)
		wbs := mf.Counter("writebacks", l1.Writebacks)
		mf.Sum("accesses == hits + misses", acc, hits, miss)
		mf.LE("miss-fetches ≤ misses", fills, miss)
		l1Fills += fills
		l1WBs += wbs
		csrLines += f.Counter("csr-lines", p.CSRLineReads)
	}

	// Global task flow: every node created was either executed by a PE
	// or adopted pre-executed from a split transfer, and every node was
	// eventually released back to the free list.
	tf := reg.Family("tasks")
	created := tf.Counter("created", a.w.NodesCreated)
	released := tf.Counter("released", a.w.NodesReleased)
	execs := tf.Counter("executed", a.w.Executions)
	tf.Counter("adopted-splits", adopted)
	var peExec int64
	for _, p := range a.pes {
		peExec += p.TasksExecuted
	}
	tf.Eq("created == executed + adopted", created, execs+adopted)
	tf.Eq("released == created", released, created)
	tf.Eq("workload executions == Σ PE executed", execs, peExec)

	// Shared memory system. Every L2 access crosses the NoC exactly
	// once; split transfers add three extra messages per delivery (two
	// control messages plus the candidate-set payload, §4.1).
	l2 := reg.Family("l2")
	l2acc := l2.Counter("accesses", a.l2.Accesses)
	l2hits := l2.Counter("hits", a.l2.Hits)
	l2miss := l2.Counter("misses", a.l2.Misses)
	l2fills := l2.Counter("miss-fetches", a.l2.MissFetches)
	l2wbs := l2.Counter("writebacks", a.l2.Writebacks)
	l2.Sum("accesses == hits + misses", l2acc, l2hits, l2miss)
	l2.Sum("accesses == Σ(L1 fills + L1 writebacks + CSR lines)", l2acc,
		l1Fills, l1WBs, csrLines)

	dram := reg.Family("dram")
	reads := dram.Counter("reads", a.dram.Reads)
	writes := dram.Counter("writes", a.dram.Writes)
	rh := dram.Counter("row-hits", a.dram.RowHits)
	rm := dram.Counter("row-misses", a.dram.RowMisses)
	dram.Sum("accesses == row-hits + row-misses", reads+writes, rh, rm)
	dram.Sum("accesses == L2 fills + L2 writebacks", reads+writes, l2fills, l2wbs)

	splits := a.Splits
	noc := reg.Family("noc")
	msgs := noc.Counter("messages", a.noc.Messages)
	noc.Counter("lines-moved", a.noc.LinesMoved)
	noc.Sum("messages == L2 accesses + 3×split transfers", msgs, l2acc, 3*splits)

	// Split/merge events (§4.1, §4.2).
	sm := reg.Family("splitmerge")
	sm.Counter("splits-delivered", splits)
	sm.Counter("splits-received", splitsReceived)
	var performed, merges, transitions int64
	for _, p := range a.pes {
		transitions += p.ConservativeTransitions
		if t, ok := p.Policy().(*core.Tree); ok {
			performed += t.SplitsPerformed
			merges += t.MergeFeeds
		}
	}
	sm.Counter("splits-carved", performed)
	sm.Counter("merge-feeds", merges)
	sm.Counter("conservative-transitions", transitions)
	// Cluster migrations (chip-level splits over the interconnect) land
	// in the same per-tree SplitsReceived counter as local deliveries;
	// outside cluster runs both migration counters are zero and the
	// identity reduces to the original delivered == received.
	migIn := sm.Counter("migrated-in", a.MigratedIn)
	sm.Counter("migrated-out", a.MigratedOut)
	sm.Eq("splits delivered + migrations in == splits received", splits+migIn, splitsReceived)
	var pending int64
	for _, flag := range a.splitPending {
		if flag {
			pending++
		}
	}
	sm.Eq("reserved helpers == split transfers in flight", pending, int64(a.splitsInFlight))
	sm.Eq("no split transfers in flight", pending, 0)

	return reg
}

// VerifyMetrics runs the conservation pass over the current counter
// state, returning a *metrics.VerifyError naming every violated
// invariant (nil when all identities hold).
func (a *Accelerator) VerifyMetrics() error {
	return a.Metrics().Verify()
}
