package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/datasets"
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/sim"
)

// simSpec is a simulation workload: a dataset analogue, a pattern, and
// either one Table-3 chip (chips == 0) or a cluster of chips.
type simSpec struct {
	name, dataset, pattern string
	chips                  int
	pin                    simPin
}

// simPin holds the simulated statistics every run must reproduce
// exactly. The simulator is deterministic, so any drift is a behaviour
// change and counts as a failed operation.
type simPin struct{ cycles, events, embeddings, tasks int64 }

// The three simulation workloads (see README.md for why each was chosen).
var (
	simAs4cl       = simSpec{name: "sim-as-4cl", dataset: "as", pattern: "4cl", pin: simPin{125665, 640800, 7643, 175326}}
	simOrTc        = simSpec{name: "sim-or-tc", dataset: "or", pattern: "tc", pin: simPin{228808, 755486, 528110, 709067}}
	cluster16YoTtE = simSpec{name: "cluster16-yo-tt_e", dataset: "yo", pattern: "tt_e", chips: 16, pin: simPin{73321, 1176066, 40200738, 40498279}}
)

// simLimit is the latency limit one simulated run must meet to count
// towards slo_ok_ratio.
const simLimit = 5 * time.Second

// chipConfig is the Table-3 chip with splitting and merging on.
func chipConfig() accel.Config {
	cfg := accel.DefaultConfig(accel.SchemeShogun)
	cfg.EnableSplitting = true
	cfg.EnableMerging = true
	return cfg
}

// clusterConfig is BenchmarkClusterSimulate's machine: 2-PE chips,
// hash-partitioned roots, splitting and chip stealing on, merging off.
func clusterConfig(chips int) cluster.Config {
	cfg := cluster.DefaultConfig(accel.SchemeShogun, chips)
	cfg.Partition = cluster.ModeHash
	cfg.Chip.NumPEs = 2
	cfg.Chip.EnableSplitting = true
	return cfg
}

type simInputs struct {
	g *graph.Graph
	s *pattern.Schedule
}

// setup generates the analogue, builds its hub index and the schedule.
func (spec simSpec) setup(rec *recorder) (simInputs, error) {
	root := rec.open("setup", nil)
	defer root.end()
	ds, err := datasets.Lookup(spec.dataset)
	if err != nil {
		return simInputs{}, err
	}
	sp := rec.open("datasets.Make", root)
	g := ds.Make()
	sp.end()
	sp = rec.open("graph.HubIndex", root)
	g.HubIndex()
	sp.end()
	sp = rec.open("pattern.BuildWith", root)
	s, err := schedule(spec.pattern)
	sp.end()
	if err != nil {
		return simInputs{}, err
	}
	return simInputs{g, s}, nil
}

// schedule builds a named pattern's schedule; a _v suffix asks for
// vertex-induced matching, as the daemon reads it.
func schedule(name string) (*pattern.Schedule, error) {
	p, err := pattern.ByName(name)
	if err != nil {
		return nil, err
	}
	return pattern.BuildWith(p, pattern.BuildOptions{Induced: strings.HasSuffix(name, "_v")})
}

// simStats are the statistics of one simulated run, summed (counts) or
// averaged (rates) over chips for a cluster.
type simStats struct {
	cycles, events, embeddings, tasks int64
	l1, l2, dramUtil, iuUtil, slotOcc float64
	dramReads, nocLines               int64
	breakdown                         accel.CycleBreakdown
	splits, merges, conservative      int64
	peakLive                          int
	migrations, interLines            int64
	imbalance                         float64
}

func chipStats(r *accel.Result) simStats {
	return simStats{
		cycles: int64(r.Cycles), events: r.Events, embeddings: r.Embeddings, tasks: r.Tasks + r.LeafTasks,
		l1: r.L1HitRate, l2: r.L2HitRate, dramUtil: r.DRAMBandwidth, iuUtil: r.IUUtil, slotOcc: r.SlotOccupancy,
		dramReads: r.DRAMReads, nocLines: r.NoCLines, breakdown: r.Breakdown,
		splits: r.Splits, merges: r.Merges, conservative: r.ConservativeTransitions, peakLive: r.PeakLiveSets,
	}
}

func clusterStats(r *cluster.Result) simStats {
	st := simStats{
		cycles: int64(r.Cycles), events: r.Events, embeddings: r.Embeddings, tasks: r.Tasks + r.LeafTasks,
		migrations: r.Migrations, interLines: r.InterLines, imbalance: r.ImbalanceRatio(),
	}
	n := float64(len(r.ChipResults))
	for _, c := range r.ChipResults {
		st.l1 += c.L1HitRate / n
		st.l2 += c.L2HitRate / n
		st.dramUtil += c.DRAMBandwidth / n
		st.iuUtil += c.IUUtil / n
		st.slotOcc += c.SlotOccupancy / n
		st.dramReads += c.DRAMReads
		st.nocLines += c.NoCLines
		st.breakdown.Compute += c.Breakdown.Compute
		st.breakdown.MemStall += c.Breakdown.MemStall
		st.breakdown.Scheduling += c.Breakdown.Scheduling
		st.breakdown.Idle += c.Breakdown.Idle
		st.splits += c.Splits
		st.merges += c.Merges
		st.conservative += c.ConservativeTransitions
		st.peakLive = max(st.peakLive, c.PeakLiveSets)
	}
	return st
}

// check compares a run against the pins.
func (spec simSpec) check(st simStats) error {
	got := simPin{st.cycles, st.events, st.embeddings, st.tasks}
	if got != spec.pin {
		return fmt.Errorf("pinned {cycles events embeddings tasks} %v, got %v", spec.pin, got)
	}
	return nil
}

// once builds the machine and simulates it to completion. Untraced, it
// takes the public Run path; traced, it makes the same calls one by one
// so each gets its own span.
func (spec simSpec) once(in simInputs, rec *recorder) (simStats, error) {
	op := rec.open("op", nil)
	defer op.end()
	if spec.chips > 0 {
		sp := rec.open("cluster.New", op)
		cl, err := cluster.New(in.g, in.s, clusterConfig(spec.chips))
		sp.end()
		if err != nil {
			return simStats{}, err
		}
		sp = rec.open("cluster.RunContext", op)
		res, err := cl.RunContext(context.Background())
		sp.end()
		if err != nil {
			return simStats{}, err
		}
		return clusterStats(res), nil
	}
	sp := rec.open("accel.New", op)
	a, err := accel.New(in.g, in.s, chipConfig())
	sp.end()
	if err != nil {
		return simStats{}, err
	}
	var res *accel.Result
	if rec == nil {
		res, err = a.Run()
	} else {
		res, err = runSpanned(a, rec, op)
	}
	if err != nil {
		return simStats{}, err
	}
	return chipStats(res), nil
}

// runSpanned is (*accel.Accelerator).RunContext split at its public
// steps. It keeps every check the public path makes: the drained-queue
// deadlock check, the metric conservation pass (chipConfig leaves
// VerifyMetrics on), and containment of invariant panics.
func runSpanned(a *accel.Accelerator, rec *recorder, op *openSpan) (res *accel.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &sim.InvariantError{Op: "perfbench: run", PanicValue: r, Stack: string(debug.Stack())}
		}
	}()
	sp := rec.open("accel.Start", op)
	a.Start()
	sp.end()
	sp = rec.open("sim.RunGoverned", op)
	err = a.Engine().RunGoverned(context.Background(), a.Budget())
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("accel: %w", err)
	}
	sp = rec.open("accel.Drained", op)
	err = a.Drained()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = rec.open("accel.VerifyMetrics", op)
	err = a.VerifyMetrics()
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("accel: %w", err)
	}
	sp = rec.open("accel.Collect", op)
	res = a.Collect()
	sp.end()
	return res, nil
}

// simRun is what a measured loop produced. Each operation is preceded by
// one call of the reference kernel, whose CPU time ref[i] brings the
// operation's times to the reference speed (see hostref.go).
type simRun struct {
	durs []float64 // wall seconds per operation, correct or not
	cpu  []float64 // CPU seconds per operation on its own thread
	proc []float64 // process CPU seconds per operation, its collection included
	ref  []float64 // CPU seconds of the reference call before each operation
	refW []float64 // wall seconds of the same calls
	ok   int       // correct operations within simLimit
	last simStats  // statistics of the last correct operation
}

// measure runs operations back to back for d (at least one), checking
// each against the pins. Each operation also records the CPU time of its
// own thread, which, unlike wall time, leaves out the time a shared host
// takes the CPU away.
func (spec simSpec) measure(in simInputs, rec *recorder, ref *hostRef, d time.Duration, t *tally) (simRun, error) {
	var out simRun
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	for len(out.durs) == 0 || time.Since(start) < d {
		refCPU, refWall, err := ref.sample()
		if err != nil {
			return out, err
		}
		out.ref = append(out.ref, refCPU)
		out.refW = append(out.refW, refWall)
		// Each operation starts from a collected heap, so where the
		// previous operation's garbage happens to trigger a collection
		// does not vary its time. cpu_ms_per_req still counts this work.
		p0 := cpuTime()
		runtime.GC()
		t0, c0 := time.Now(), threadCPUTime()
		st, err := spec.once(in, rec)
		dur := time.Since(t0)
		out.cpu = append(out.cpu, (threadCPUTime() - c0).Seconds())
		out.proc = append(out.proc, (cpuTime() - p0).Seconds())
		out.durs = append(out.durs, dur.Seconds())
		if err == nil {
			err = spec.check(st)
		}
		if err != nil {
			t.fail(err.Error())
			continue
		}
		t.ok()
		out.last = st
		if dur <= simLimit {
			out.ok++
		}
	}
	return out, nil
}

func simWorkload(spec simSpec) workload {
	return workload{spec.name, func(cfg runConfig) (*report, error) { return runSim(spec, cfg) }}
}

func runSim(spec simSpec, cfg runConfig) (*report, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	ref := newHostRef()
	var in simInputs
	var setup, setupRef []float64
	for moreSetups(setup) {
		_, refWall, err := ref.sample()
		if err != nil {
			return nil, err
		}
		setupRef = append(setupRef, refWall)
		runtime.GC() // every set-up starts from a collected heap
		t0 := time.Now()
		if in, err = spec.setup(rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	rep := newReport()
	if !cfg.trace {
		m := startMeter()
		r, err := spec.measure(in, nil, ref, cfg.window(), &rep.tally)
		c := m.end()
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = median(atRef(setup, setupRef))
		rep.metrics["run_s"] = median(atRef(r.cpu, r.ref))
		rep.metrics["sim_cycles"] = float64(r.last.cycles)
		rep.metrics["slo_ok_ratio"] = float64(r.ok) / float64(rep.attempted)
		rep.metrics["cpu_ms_per_req"] = median(atRef(r.proc, r.ref)) * 1e3
		rep.putCosts(c, len(r.durs))
		rep.putLatency(atRef(r.durs, r.refW))
		q1, q2, q3 := quartiles(r.durs)
		rep.notef("measured wall time per run: quartiles %.4g / %.4g / %.4g ms", q1*1e3, q2*1e3, q3*1e3)
		ref.note(rep)
		peak, err := spec.peakHeap(in)
		if err != nil {
			return nil, fmt.Errorf("peak heap run: %w", err)
		}
		rep.metrics["peak_heap_mb"] = float64(peak) / 1e6
		return rep, nil
	}

	// The first third runs untraced as the baseline for the overhead.
	base, err := spec.measure(in, nil, ref, cfg.window()/3, &rep.tally)
	if err != nil {
		return nil, err
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	m := startMeter()
	r, err := spec.measure(in, rec, ref, cfg.window()-cfg.window()/3, &rep.tally)
	c := m.end()
	if err != nil {
		return nil, err
	}
	table, err := prof.stop(rep)
	if err != nil {
		return nil, err
	}
	st := r.last
	mt := rep.metrics
	mt["graph.build_s"] = median(rec.durations("datasets.Make"))
	mt["graph.hubindex_s"] = median(rec.durations("graph.HubIndex"))
	mt["pattern.build_ms"] = rec.medianMS("pattern.BuildWith")
	mt["accel.new_ms"] = rec.medianMS("accel.New")
	mt["accel.verify_ms"] = rec.medianMS("accel.VerifyMetrics")
	mt["accel.collect_ms"] = rec.medianMS("accel.Collect")
	mt["cluster.new_ms"] = rec.medianMS("cluster.New")
	engine := "sim.RunGoverned"
	if spec.chips > 0 {
		// The cluster exposes no public split of its run, so its engine
		// time is the whole RunContext (engine, checks and collection).
		engine = "cluster.RunContext"
	}
	mt["sim.engine_s"] = median(rec.durations(engine))
	mt["sim.events"] = float64(st.events)
	if st.events > 0 {
		mt["sim.ns_per_event"] = mt["sim.engine_s"] * 1e9 / float64(st.events)
	}
	mt["mem.l1_hit_rate"] = st.l1
	mt["mem.l2_hit_rate"] = st.l2
	mt["mem.dram_reads"] = float64(st.dramReads)
	mt["mem.dram_util"] = st.dramUtil
	mt["mem.noc_lines"] = float64(st.nocLines)
	mt["pe.tasks"] = float64(st.tasks)
	mt["pe.iu_util"] = st.iuUtil
	mt["pe.slot_occupancy"] = st.slotOcc
	if tot := float64(st.breakdown.Total()); tot > 0 {
		mt["pe.breakdown.compute"] = 100 * float64(st.breakdown.Compute) / tot
		mt["pe.breakdown.mem_stall"] = 100 * float64(st.breakdown.MemStall) / tot
		mt["pe.breakdown.scheduling"] = 100 * float64(st.breakdown.Scheduling) / tot
		mt["pe.breakdown.idle"] = 100 * float64(st.breakdown.Idle) / tot
	}
	mt["core.splits"] = float64(st.splits)
	mt["core.merges"] = float64(st.merges)
	mt["core.conservative_transitions"] = float64(st.conservative)
	mt["core.peak_live_sets"] = float64(st.peakLive)
	mt["cluster.migrations"] = float64(st.migrations)
	mt["cluster.interconnect_lines"] = float64(st.interLines)
	mt["cluster.imbalance_ratio"] = st.imbalance
	mt["gc.cycles"] = float64(c.gcCycles) / float64(len(r.durs))
	mt["error_ratio"] = rep.errorRatio()
	mt["trace.overhead_pct"] = overheadPct(base.cpu, r.cpu)
	mt["host.ref_ms"] = median(ref.cpu) * 1e3
	return rep, finishTrace(cfg, spec.name, rec, table, rep, nil)
}

// peakHeap runs one more operation, after the measured window, with the
// collector running every 5% of heap growth, so the live heap it marks
// follows the operation's peak closely. At the default setting a run sees
// a few collections at whatever points they happen to fall, and the
// largest marked heap varies by a third between runs.
func (spec simSpec) peakHeap(in simInputs) (uint64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	runtime.GC()
	m := startMeter()
	_, err := spec.once(in, nil)
	return m.end().peakHeap, err
}

// overheadPct compares the traced median run_s with the untraced one.
func overheadPct(untraced, traced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (median(traced)/u - 1)
}
