// Command shogun runs one accelerator simulation, on one chip or many,
// and prints its statistics.
//
// Usage:
//
//	shogun -dataset yo -pattern 4cl -scheme shogun
//	shogun -graph edges.txt -pattern tt_v -scheme fingers -pes 4 -width 8
//	shogun -dataset wi -pattern tc -scheme shogun -split -merge -v
//	shogun -dataset yo -pattern tc -chips 4 -partition hash -split -trace-out c4.json
//	shogun -chips 4 -partition hash -split -dumpconfig > machine.json
//	shogun -dataset yo -pattern tc -config machine.json
//
// One JSON file describes the whole simulated machine: the chip count,
// the partition and its seed, the chip, the interconnect and chip-level
// stealing. -dumpconfig prints it and -config loads it; every field is
// settable there, and a machine flag given on the command line
// overrides the file. A chip-only file is refused.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/datasets"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

// options is the parsed flag set: the machine file and the machine
// flags over it (the chip's shape and scheduling knobs, the chip count
// and partitioning, the run budgets), and the outputs.
type options struct {
	dataset, graphArg, pattern, scheme, cfgPath, partition string
	pes, width, chips                                      int
	split, merge, dumpCfg, verify, verbose, metrics        bool
	deadline, maxEvents, sampleEvery                       int64
	maxWall                                                time.Duration
	traceOut, chromeOut, timeseriesOut, httpAddr           string
	set                                                    map[string]bool // the flags the command line gave
}

// parseFlags registers the command's flags on fs, parses args into the
// options and notes which flags the command line set.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.dataset, "dataset", "", "dataset analogue: wi|as|yo|pa|lj|or")
	fs.StringVar(&o.graphArg, "graph", "", "edge-list file (alternative to -dataset)")
	fs.StringVar(&o.pattern, "pattern", "tc", "pattern: tc|tt[_e|_v]|4cl|5cl|dia[_e|_v]|4cyc[_e|_v]|house")
	fs.StringVar(&o.scheme, "scheme", "shogun", "scheme: shogun|fingers|pseudo-dfs|dfs|bfs|parallel-dfs")
	fs.IntVar(&o.pes, "pes", 10, "number of PEs per chip")
	fs.IntVar(&o.width, "width", 8, "task execution width")
	fs.BoolVar(&o.split, "split", false, "enable task-tree splitting (shogun)")
	fs.BoolVar(&o.merge, "merge", false, "enable search-tree merging (shogun)")
	fs.BoolVar(&o.verify, "verify", true, "cross-check count against the software miner")
	fs.StringVar(&o.cfgPath, "config", "", "load the machine (chips, partition, chip, interconnect, stealing) from a -dumpconfig JSON file; machine flags given override it")
	fs.BoolVar(&o.dumpCfg, "dumpconfig", false, "print the whole machine config as JSON and exit (needs no graph)")
	fs.StringVar(&o.traceOut, "trace", "", "write per-task JSONL trace to file")
	fs.StringVar(&o.chromeOut, "trace-out", "", "write Chrome trace JSON (load in chrome://tracing or Perfetto)")
	fs.BoolVar(&o.metrics, "metrics", false, "print the hardware-counter report and verify conservation invariants")
	fs.BoolVar(&o.verbose, "v", false, "print extended statistics")
	fs.Int64Var(&o.deadline, "deadline", 0, "abort after this many simulated cycles (0 = none)")
	fs.Int64Var(&o.maxEvents, "maxevents", 0, "abort after this many simulation events (0 = none)")
	fs.DurationVar(&o.maxWall, "maxwall", 0, "abort after this much wall-clock time (0 = none)")
	fs.IntVar(&o.chips, "chips", 1, "number of accelerator chips (>1 simulates a multi-chip cluster)")
	fs.StringVar(&o.partition, "partition", "", "cluster root partitioning: replicate (default) | hash | range")
	fs.Int64Var(&o.sampleEvery, "sample-every", 0, "sample telemetry gauges every N cycles (0 = off)")
	fs.StringVar(&o.timeseriesOut, "timeseries-out", "", "write the sampled telemetry series to file (.json = JSON, else CSV; needs -sample-every)")
	fs.StringVar(&o.httpAddr, "http", "", "serve live inspection endpoints (JSON snapshot, expvar, pprof) on host:port (\":0\" picks a port)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, nil
}

func main() {
	o, _ := parseFlags(flag.CommandLine, os.Args[1:]) // CommandLine exits on a parse error
	// SIGINT/SIGTERM cancel the simulation at the next watchdog poll;
	// the run loop flushes a diagnostic snapshot and exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *o); err != nil {
		fmt.Fprintln(os.Stderr, "shogun:", err)
		var inv *sim.InvariantError
		var dead *sim.DeadlockError
		switch {
		case errors.As(err, &inv):
			fmt.Fprintln(os.Stderr, inv.Details())
		case errors.As(err, &dead):
			fmt.Fprintln(os.Stderr, dead.Details())
		}
		os.Exit(1)
	}
}

// validate rejects inconsistent or malformed flags before any
// simulation work starts.
func (o options) validate() error {
	if o.sampleEvery < 0 {
		return fmt.Errorf("-sample-every must be a positive cycle count (got %d)", o.sampleEvery)
	}
	if o.timeseriesOut != "" && o.sampleEvery == 0 {
		return fmt.Errorf("-timeseries-out needs -sample-every > 0 (nothing is sampled otherwise)")
	}
	if o.httpAddr != "" {
		return telemetry.ValidateAddr(o.httpAddr)
	}
	return nil
}

// machineConfig builds the machine's config: the -config file, or the
// scheme's Table 3 chip on one chip, with every machine flag the command
// line gives written over it. A flag left at its default leaves the file
// alone.
func (o options) machineConfig() (cluster.Config, error) {
	cfg := cluster.DefaultConfig(accel.Scheme(o.scheme), 1)
	if o.cfgPath != "" {
		b, err := os.ReadFile(o.cfgPath)
		if err != nil {
			return cluster.Config{}, err
		}
		if cfg, err = cluster.ParseConfig(b); err != nil {
			return cluster.Config{}, fmt.Errorf("%s: %w", o.cfgPath, err)
		}
	}
	chip := &cfg.Chip
	if o.set["scheme"] {
		chip.Scheme = accel.Scheme(o.scheme)
	}
	if o.set["pes"] {
		chip.NumPEs = o.pes
	}
	if o.set["width"] {
		chip.SetWidth(o.width)
	}
	if o.set["split"] {
		chip.EnableSplitting = o.split
	}
	if o.set["merge"] {
		chip.EnableMerging = o.merge
	}
	if o.set["deadline"] {
		chip.Deadline = sim.Time(o.deadline)
	}
	if o.set["maxevents"] {
		chip.MaxEvents = o.maxEvents
	}
	if o.set["maxwall"] {
		chip.MaxWall = o.maxWall
	}
	if o.set["sample-every"] {
		chip.SampleEvery = sim.Time(o.sampleEvery)
	}
	if o.set["chips"] {
		cfg.Chips = o.chips
	}
	if o.set["partition"] {
		cfg.Partition = cluster.Mode(o.partition)
	}
	return cfg, nil
}

// inputs reads the graph and builds the pattern's schedule.
func (o options) inputs() (g *graph.Graph, s *pattern.Schedule, err error) {
	switch {
	case o.dataset != "":
		g, err = datasets.Get(o.dataset)
	case o.graphArg != "":
		var f *os.File
		if f, err = os.Open(o.graphArg); err == nil {
			defer f.Close()
			g, err = graph.ReadEdgeList(f, 0)
		}
	default:
		err = fmt.Errorf("need -dataset or -graph")
	}
	if err != nil {
		return nil, nil, err
	}
	p, err := pattern.ByName(o.pattern)
	if err != nil {
		return nil, nil, err
	}
	s, err = pattern.BuildWith(p, pattern.BuildOptions{Induced: strings.HasSuffix(o.pattern, "_v")})
	return g, s, err
}

// run simulates the machine the options describe — -chips copies of the
// chip, one chip being the 1-chip cluster — and prints its report from
// the machine-level aggregate. Trace events number PEs machine-wide
// (chip c's PE p is c×pes+p).
func run(ctx context.Context, o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	cfg, err := o.machineConfig()
	if err != nil {
		return err
	}
	if o.dumpCfg {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cfg)
	}
	g, s, err := o.inputs()
	if err != nil {
		return err
	}

	summary := trace.NewSummary()
	timeline := trace.NewTimeline()
	var jsonl *trace.JSONL
	var chrome *trace.Chrome
	tracers := trace.Multi{}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = trace.NewJSONL(f)
		tracers = append(tracers, jsonl)
	}
	if o.chromeOut != "" {
		chrome = trace.NewChrome()
		tracers = append(tracers, chrome)
	}
	if len(tracers) > 0 || o.verbose {
		tracers = append(tracers, summary, timeline)
		cfg.Chip.Tracer = tracers
	}

	st := g.ComputeStats()
	fmt.Printf("graph: %d vertices, %d edges, max degree %d, avg %.1f, skew %.1f\n",
		st.Vertices, st.Edges, st.MaxDegree, st.AvgDegree, st.Skewness)
	fmt.Printf("schedule %s:\n%s", s.Name, s.String())

	cl, err := cluster.New(g, s, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %s\n", cl.Partition())
	if o.httpAddr != "" {
		srv, err := telemetry.NewServer(o.httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		srv.HandleJSON("/telemetry.json", func() any {
			return telemetry.RunSnapshot{Samples: cl.Samples(), Histograms: cl.Histograms()}
		})
		telemetry.PublishVar("run", func() any {
			info := map[string]any{"scheme": cfg.Chip.Scheme, "pattern": s.Name, "pes": cfg.Chip.NumPEs, "chips": cfg.Chips}
			if smp := cl.Sampler(); smp != nil {
				for _, name := range [...]string{"engine/events", "tasks/executed"} {
					if v, ok := smp.Last(name); ok {
						info[name] = v
					}
				}
			}
			return info
		})
		fmt.Printf("live inspection: http://%s/ (telemetry.json, debug/vars, debug/pprof)\n", srv.Addr())
	}
	cres, err := cl.RunContext(ctx)
	if err != nil {
		if errors.Is(err, sim.ErrCancelled) {
			// Flush partial progress before exiting non-zero.
			eng := cl.Engine()
			fmt.Printf("\ninterrupted at cycle %d after %d events\n", int64(eng.Now()), eng.Processed)
		}
		return err
	}
	res := cres.Machine()

	fmt.Printf("\nscheme=%s pes=%d width=%d chips=%d partition=%s\n", res.Scheme, cfg.Chip.NumPEs, cfg.Chip.PE.Width, cres.Chips, cres.Partition)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("embeddings:      %d\n", res.Embeddings)
	fmt.Printf("tasks:           %d internal + %d leaf\n", res.Tasks, res.LeafTasks)
	fmt.Printf("IU utilization:  %.1f%%\n", res.IUUtil*100)
	fmt.Printf("slot occupancy:  %.1f%%\n", res.SlotOccupancy*100)
	fmt.Printf("L1 hit rate:     %.1f%% (avg latency %.1f cycles)\n", res.L1HitRate*100, res.L1AvgLatency)
	fmt.Printf("L2 hit rate:     %.1f%%\n", res.L2HitRate*100)
	fmt.Printf("DRAM:            %d reads, %d writes, %.1f%% bandwidth\n", res.DRAMReads, res.DRAMWrites, res.DRAMBandwidth*100)
	fmt.Printf("NoC lines moved: %d\n", res.NoCLines)
	if cfg.Chip.EnableSplitting || cfg.Chip.EnableMerging {
		fmt.Printf("splits=%d merges=%d\n", res.Splits, res.Merges)
	}
	fmt.Printf("cycle breakdown: compute=%.1f%% memstall=%.1f%% sched=%.1f%% idle=%.1f%%\n",
		bdPct(res.Breakdown.Compute, res.Breakdown), bdPct(res.Breakdown.MemStall, res.Breakdown),
		bdPct(res.Breakdown.Scheduling, res.Breakdown), bdPct(res.Breakdown.Idle, res.Breakdown))
	fmt.Printf("chip occupancy:  max %.1f%% mean %.1f%% (max/mean %.2f)\n",
		cres.MaxOccupancy*100, cres.MeanOccupancy*100, cres.ImbalanceRatio())
	fmt.Printf("migrations:      %d subtrees (%d retries)\n", cres.Migrations, cres.AdoptRetries)
	fmt.Printf("interconnect:    %d messages, %d lines\n", cres.InterMessages, cres.InterLines)
	for i, st := range cres.PerChip {
		cr := cres.ChipResults[i]
		fmt.Printf("  chip%d: %d roots, %d tasks, %d embeddings, occ %.1f%%, migrated out=%d in=%d\n",
			i, st.Vertices, cr.Tasks, cr.Embeddings, st.Occupancy*100, st.MigratedOut, st.MigratedIn)
	}
	fmt.Printf("digests (cycles; split-lines in cache lines):\n")
	for _, name := range [...]string{"task-lifetime", "queue-wait", "l1-latency", "l2-latency", "split-lines"} {
		d := res.Digests[name]
		fmt.Printf("  %-13s n=%d p50=%d p99=%d max=%d\n", name, d.Count, d.P50, d.P99, d.Max)
	}
	// Multi.Err surfaces the first deferred failure from any attached
	// writer (a full disk mid-run must not pass silently as a short trace).
	if err := tracers.Err(); err != nil {
		if jsonl != nil {
			return fmt.Errorf("trace truncated after %d events: %w", jsonl.Count(), err)
		}
		return fmt.Errorf("trace: %w", err)
	}
	series := res.Telemetry
	if o.timeseriesOut != "" {
		if err := writeTimeSeries(o.timeseriesOut, series); err != nil {
			return err
		}
		fmt.Printf("telemetry series: %s (%d epochs, every %d cycles)\n",
			o.timeseriesOut, len(series.Cycles), series.Interval)
	}
	if chrome != nil {
		chrome.AddTimeSeries(series)
		f, err := os.Create(o.chromeOut)
		if err != nil {
			return err
		}
		if _, err := chrome.WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("chrome trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("chrome trace:    %s (%d events; open chrome://tracing and load it)\n", o.chromeOut, chrome.Count())
	}
	if o.metrics {
		reg := cl.Metrics()
		fmt.Printf("\nhardware counters:\n%s", reg.Report())
		if err := reg.Verify(); err != nil {
			return err
		}
		fmt.Printf("metrics: all %d conservation invariants hold\n", reg.Invariants())
	}
	if o.verbose {
		fmt.Printf("task latency by depth:\n%s", summary.String())
		fmt.Printf("PE occupancy timeline:\n%s", timeline.Render(72))
		fmt.Printf("conservative transitions: %d\n", res.ConservativeTransitions)
		fmt.Printf("peak live sets:           %d\n", res.PeakLiveSets)
		fmt.Printf("events processed:         %d\n", res.Events)
		fmt.Printf("intermediate lines/task:  %.2f\n", res.IntermediateLinesPerTask)
		p0 := cl.Chips()[0].PEs()[0]
		avg := func(sum sim.Time) float64 { return sim.Ratio(sum, p0.TasksExecuted) }
		fmt.Printf("phase avgs (pe0): decode=%.1f spm+disp=%.1f fetch=%.1f compute=%.1f wb=%.1f spawnw=%.1f leaf=%.1f residency=%.1f\n",
			avg(p0.PhaseDecode), avg(p0.PhaseSPM), avg(p0.PhaseFetch), avg(p0.PhaseCompute), avg(p0.PhaseWB), avg(p0.PhaseSpawnWait), avg(p0.PhaseLeaf), avg(p0.SlotResidency))
		for c, a := range cl.Chips() {
			for _, pe := range a.PEs() {
				fmt.Printf("  pe%d: tasks=%d last=%d iu=%.1f%% l1hit=%.1f%% slotavg=%.2f decode=%.1f%% dispatch=%.1f%% wb=%.1f%% spawn=%.1f%%\n",
					c*cfg.Chip.NumPEs+pe.ID, pe.TasksExecuted, pe.LastActive,
					pe.IUPool.Utilization(res.Cycles)*100,
					pe.L1.HitRate()*100,
					pe.Slots.AvgOccupancy(res.Cycles),
					pe.DecodeUtil(res.Cycles)*100, pe.DispatchUtil(res.Cycles)*100,
					pe.WritebackUtil(res.Cycles)*100, pe.SpawnUtil(res.Cycles)*100)
			}
		}
	}
	if o.verify {
		want := mine.Count(g, s)
		if want != res.Embeddings {
			return fmt.Errorf("VERIFY FAILED: simulator found %d embeddings, software miner %d", res.Embeddings, want)
		}
		fmt.Printf("verify: OK (software miner agrees: %d)\n", want)
	}
	return nil
}

// writeTimeSeries exports the sampled telemetry: JSON when the file name
// ends in .json, the wide CSV (one column per gauge) otherwise.
func writeTimeSeries(path string, ts *telemetry.TimeSeries) error {
	if ts == nil || len(ts.Cycles) == 0 {
		return fmt.Errorf("timeseries-out: run produced no samples")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = ts.WriteJSON(f)
	} else {
		err = ts.WriteCSV(f)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("timeseries-out: %w", err)
	}
	return f.Close()
}

// bdPct renders one attribution category as a percentage of the total.
func bdPct(v int64, b accel.CycleBreakdown) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(v) / float64(t) * 100
}
