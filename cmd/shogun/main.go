// Command shogun runs one accelerator simulation and prints its
// statistics.
//
// Usage:
//
//	shogun -dataset yo -pattern 4cl -scheme shogun
//	shogun -graph edges.txt -pattern tt_v -scheme fingers -pes 4 -width 8
//	shogun -dataset wi -pattern tc -scheme shogun -split -merge -v
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

func main() {
	var (
		dataset  = flag.String("dataset", "", "dataset analogue: wi|as|yo|pa|lj|or")
		graphArg = flag.String("graph", "", "edge-list file (alternative to -dataset)")
		patName  = flag.String("pattern", "tc", "pattern: tc|tt[_e|_v]|4cl|5cl|dia[_e|_v]|4cyc[_e|_v]|house")
		scheme   = flag.String("scheme", "shogun", "scheme: shogun|fingers|pseudo-dfs|dfs|bfs|parallel-dfs")
		pes      = flag.Int("pes", 10, "number of PEs")
		width    = flag.Int("width", 8, "task execution width")
		l1KB     = flag.Int("l1", 32, "L1 size in KB")
		l2KB     = flag.Int("l2", 0, "L2 size in KB (0 = default)")
		split    = flag.Bool("split", false, "enable task-tree splitting (shogun)")
		merge    = flag.Bool("merge", false, "enable search-tree merging (shogun)")
		tokens   = flag.Int("tokens", 0, "address tokens per depth (default: width)")
		bunches  = flag.Int("bunches", 4, "task tree bunches per depth (shogun)")
		verify   = flag.Bool("verify", true, "cross-check count against the software miner")
		cfgPath  = flag.String("config", "", "load accelerator config from JSON (flags below override)")
		dumpCfg  = flag.Bool("dumpconfig", false, "print the effective config as JSON and exit")
		traceOut = flag.String("trace", "", "write per-task JSONL trace to file")
		chromeT  = flag.String("trace-out", "", "write Chrome trace JSON (load in chrome://tracing or Perfetto)")
		metricsF = flag.Bool("metrics", false, "print the hardware-counter report and verify conservation invariants")
		verbose  = flag.Bool("v", false, "print extended statistics")
		deadline = flag.Int64("deadline", 0, "abort after this many simulated cycles (0 = none)")
		maxEv    = flag.Int64("maxevents", 0, "abort after this many simulation events (0 = none)")
		maxWall  = flag.Duration("maxwall", 0, "abort after this much wall-clock time (0 = none)")
		chips    = flag.Int("chips", 1, "number of accelerator chips (>1 simulates a multi-chip cluster)")
		partMode = flag.String("partition", "", "cluster root partitioning: replicate (default) | hash | range")
		partSeed = flag.Int64("partition-seed", 0, "seed for the hash partitioner")
		steal    = flag.Bool("steal", true, "enable chip-level work stealing over the interconnect (shogun scheme)")
		sampleEv = flag.Int64("sample-every", 0, "sample telemetry gauges every N cycles (0 = off)")
		tsOut    = flag.String("timeseries-out", "", "write the sampled telemetry series to file (.json = JSON, else CSV; needs -sample-every)")
		httpAddr = flag.String("http", "", "serve live inspection endpoints (JSON snapshot, expvar, pprof) on host:port (\":0\" picks a port)")
	)
	flag.Parse()
	// SIGINT/SIGTERM cancel the simulation at the next watchdog poll;
	// the run loop flushes a diagnostic snapshot and exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tf := telemetryFlags{sampleEvery: *sampleEv, timeseriesOut: *tsOut, httpAddr: *httpAddr}
	cf := clusterFlags{chips: *chips, partition: *partMode, seed: *partSeed, steal: *steal}
	if err := run(ctx, *dataset, *graphArg, *patName, *scheme, *pes, *width, *l1KB, *l2KB, *tokens, *bunches, *split, *merge, *verify, *verbose, *metricsF, *traceOut, *chromeT, *cfgPath, *dumpCfg, *deadline, *maxEv, *maxWall, tf, cf); err != nil {
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

// telemetryFlags carries the time-resolved telemetry options (-sample-every,
// -timeseries-out, -http) through to run.
type telemetryFlags struct {
	sampleEvery   int64
	timeseriesOut string
	httpAddr      string
}

// validate rejects inconsistent or malformed telemetry flags before any
// simulation work starts.
func (tf telemetryFlags) validate() error {
	if tf.sampleEvery < 0 {
		return fmt.Errorf("-sample-every must be a positive cycle count (got %d)", tf.sampleEvery)
	}
	if tf.timeseriesOut != "" && tf.sampleEvery == 0 {
		return fmt.Errorf("-timeseries-out needs -sample-every > 0 (nothing is sampled otherwise)")
	}
	if tf.httpAddr != "" {
		if err := telemetry.ValidateAddr(tf.httpAddr); err != nil {
			return err
		}
	}
	return nil
}

// clusterFlags carries the multi-chip options (-chips, -partition,
// -partition-seed, -steal) through to run.
type clusterFlags struct {
	chips     int
	partition string
	seed      int64
	steal     bool
}

func run(ctx context.Context, dataset, graphArg, patName, scheme string, pes, width, l1KB, l2KB, tokens, bunches int, split, merge, verify, verbose, metricsF bool, traceOut, chromeOut, cfgPath string, dumpCfg bool, deadline, maxEvents int64, maxWall time.Duration, tf telemetryFlags, cf clusterFlags) error {
	if err := tf.validate(); err != nil {
		return err
	}
	if cf.chips < 1 {
		return fmt.Errorf("-chips must be >= 1 (got %d)", cf.chips)
	}
	if _, err := cluster.ParseMode(cf.partition); err != nil {
		return err
	}
	var g *graph.Graph
	var err error
	switch {
	case dataset != "":
		g, err = datasets.Get(dataset)
	case graphArg != "":
		var f *os.File
		if f, err = os.Open(graphArg); err == nil {
			defer f.Close()
			g, err = graph.ReadEdgeList(f)
		}
	default:
		return fmt.Errorf("need -dataset or -graph")
	}
	if err != nil {
		return err
	}

	p, err := pattern.ByName(patName)
	if err != nil {
		return err
	}
	s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: strings.HasSuffix(patName, "_v")})
	if err != nil {
		return err
	}

	cfg := accel.DefaultConfig(accel.Scheme(scheme))
	if cfgPath != "" {
		var err error
		if cfg, err = accel.LoadConfig(cfgPath); err != nil {
			return err
		}
	}
	cfg.NumPEs = pes
	cfg.PE.Width = width
	cfg.TokensPerDepth = width
	if tokens > 0 {
		cfg.TokensPerDepth = tokens
	}
	cfg.Tree.EntriesPerBunch = width
	cfg.Tree.BunchesPerDepth = bunches
	cfg.PE.L1.SizeKB = l1KB
	if l2KB > 0 {
		cfg.L2.SizeKB = l2KB
	}
	cfg.EnableSplitting = split
	cfg.EnableMerging = merge
	if deadline > 0 {
		cfg.Deadline = sim.Time(deadline)
	}
	if maxEvents > 0 {
		cfg.MaxEvents = maxEvents
	}
	if maxWall > 0 {
		cfg.MaxWall = maxWall
	}
	if tf.sampleEvery > 0 {
		cfg.SampleEvery = sim.Time(tf.sampleEvery)
	}

	summary := trace.NewSummary()
	timeline := trace.NewTimeline()
	var jsonl *trace.JSONL
	var chrome *trace.Chrome
	tracers := trace.Multi{}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		jsonl = trace.NewJSONL(f)
		tracers = append(tracers, jsonl)
	}
	if chromeOut != "" {
		chrome = trace.NewChrome()
		tracers = append(tracers, chrome)
	}
	if len(tracers) > 0 || verbose {
		tracers = append(tracers, summary, timeline)
		cfg.Tracer = tracers
	}

	if dumpCfg {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cfg)
	}

	st := g.ComputeStats()
	fmt.Printf("graph: %d vertices, %d edges, max degree %d, avg %.1f, skew %.1f\n",
		st.Vertices, st.Edges, st.MaxDegree, st.AvgDegree, st.Skewness)
	fmt.Printf("schedule %s:\n%s", s.Name, s.String())

	if cf.chips > 1 {
		return runCluster(ctx, g, s, cfg, cf, pes, width, verify, metricsF, tf)
	}

	a, err := accel.New(g, s, cfg)
	if err != nil {
		return err
	}
	if tf.httpAddr != "" {
		srv, err := telemetry.NewServer(tf.httpAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		tel := a.Telemetry()
		srv.HandleJSON("/telemetry.json", func() any {
			var snap telemetry.RunSnapshot
			if tel != nil {
				snap.Samples = tel.Sampler.Snapshot()
				snap.Histograms = tel.Histograms()
			}
			return snap
		})
		telemetry.PublishVar("run", func() any {
			info := map[string]any{"scheme": scheme, "pattern": s.Name, "pes": pes}
			if tel != nil {
				if cyc, ok := tel.Sampler.Last("engine/events"); ok {
					info["engine/events"] = cyc
				}
				if done, ok := tel.Sampler.Last("tasks/executed"); ok {
					info["tasks/executed"] = done
				}
			}
			return info
		})
		fmt.Printf("live inspection: http://%s/ (telemetry.json, debug/vars, debug/pprof)\n", srv.Addr())
	}
	res, err := a.RunContext(ctx)
	if err != nil {
		if errors.Is(err, sim.ErrCancelled) {
			// Flush partial progress before exiting non-zero.
			eng := a.Engine()
			fmt.Printf("\ninterrupted at cycle %d after %d events\n", int64(eng.Now()), eng.Processed)
		}
		return err
	}

	fmt.Printf("\nscheme=%s pes=%d width=%d\n", res.Scheme, pes, width)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("embeddings:      %d\n", res.Embeddings)
	fmt.Printf("tasks:           %d internal + %d leaf\n", res.Tasks, res.LeafTasks)
	fmt.Printf("IU utilization:  %.1f%%\n", res.IUUtil*100)
	fmt.Printf("slot occupancy:  %.1f%%\n", res.SlotOccupancy*100)
	fmt.Printf("L1 hit rate:     %.1f%% (avg latency %.1f cycles)\n", res.L1HitRate*100, res.L1AvgLatency)
	fmt.Printf("L2 hit rate:     %.1f%%\n", res.L2HitRate*100)
	fmt.Printf("DRAM:            %d reads, %d writes, %.1f%% bandwidth\n", res.DRAMReads, res.DRAMWrites, res.DRAMBandwidth*100)
	fmt.Printf("NoC lines moved: %d\n", res.NoCLines)
	if split || merge {
		fmt.Printf("splits=%d merges=%d\n", res.Splits, res.Merges)
	}
	fmt.Printf("cycle breakdown: compute=%.1f%% memstall=%.1f%% sched=%.1f%% idle=%.1f%%\n",
		bdPct(res.Breakdown.Compute, res.Breakdown), bdPct(res.Breakdown.MemStall, res.Breakdown),
		bdPct(res.Breakdown.Scheduling, res.Breakdown), bdPct(res.Breakdown.Idle, res.Breakdown))
	// Multi.Err surfaces the first deferred failure from any attached
	// writer (a full disk mid-run must not pass silently as a short trace).
	if err := tracers.Err(); err != nil {
		if jsonl != nil {
			return fmt.Errorf("trace truncated after %d events: %w", jsonl.Count(), err)
		}
		return fmt.Errorf("trace: %w", err)
	}
	if tf.timeseriesOut != "" {
		if err := writeTimeSeries(tf.timeseriesOut, res.Telemetry); err != nil {
			return err
		}
		fmt.Printf("telemetry series: %s (%d epochs, every %d cycles)\n",
			tf.timeseriesOut, len(res.Telemetry.Cycles), res.Telemetry.Interval)
	}
	if chrome != nil {
		// Fold the sampler's system-level gauges in as counter tracks
		// (per-PE occupancy already derives from the task spans).
		if res.Telemetry != nil {
			for _, series := range res.Telemetry.Series {
				if !strings.HasPrefix(series.Name, "pe") {
					chrome.AddCounterSeries(series.Name, res.Telemetry.Cycles, series.Vals)
				}
			}
		}
		f, err := os.Create(chromeOut)
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
		fmt.Printf("chrome trace:    %s (%d events; open chrome://tracing and load it)\n", chromeOut, chrome.Count())
	}
	if metricsF {
		reg := a.Metrics()
		fmt.Printf("\nhardware counters:\n%s", reg.Report())
		if err := reg.Verify(); err != nil {
			return err
		}
		fmt.Printf("metrics: all %d conservation invariants hold\n", reg.Invariants())
	}
	if verbose {
		fmt.Printf("task latency by depth:\n%s", summary.String())
		fmt.Printf("PE occupancy timeline:\n%s", timeline.Render(72))
		fmt.Printf("conservative transitions: %d\n", res.ConservativeTransitions)
		fmt.Printf("peak live sets:           %d\n", res.PeakLiveSets)
		fmt.Printf("events processed:         %d\n", res.Events)
		fmt.Printf("intermediate lines/task:  %.2f\n", res.IntermediateLinesPerTask)
		p0 := a.PEs()[0]
		fmt.Printf("phase avgs (pe0): decode=%.1f spm+disp=%.1f fetch=%.1f compute=%.1f wb=%.1f spawnw=%.1f leaf=%.1f residency=%.1f\n",
			p0.PhaseDecode.Avg(), p0.PhaseSPM.Avg(), p0.PhaseFetch.Avg(), p0.PhaseCompute.Avg(), p0.PhaseWB.Avg(), p0.PhaseSpawnWait.Avg(), p0.PhaseLeaf.Avg(), p0.SlotResidency.Avg())
		for _, pe := range a.PEs() {
			fmt.Printf("  pe%d: tasks=%d last=%d iu=%.1f%% l1hit=%.1f%% slotavg=%.2f decode=%.1f%% dispatch=%.1f%% wb=%.1f%% spawn=%.1f%%\n",
				pe.ID, pe.TasksExecuted.Total, pe.LastActive,
				pe.IUPool.Utilization(res.Cycles)*100,
				pe.L1.HitRate()*100,
				pe.Slots.AvgOccupancy(res.Cycles),
				pe.DecodeUtil(res.Cycles)*100, pe.DispatchUtil(res.Cycles)*100,
				pe.WritebackUtil(res.Cycles)*100, pe.SpawnUtil(res.Cycles)*100)
		}
	}
	if verify {
		want := mine.Count(g, s)
		if want != res.Embeddings {
			return fmt.Errorf("VERIFY FAILED: simulator found %d embeddings, software miner %d", res.Embeddings, want)
		}
		fmt.Printf("verify: OK (software miner agrees: %d)\n", want)
	}
	return nil
}

// runCluster simulates a multi-chip scale-out system: the chip config
// built from the usual flags is replicated across -chips chips, the root
// space is split by -partition, and chip-level work stealing rides the
// inter-chip interconnect. Cross-chip conservation identities verify by
// default on every run.
func runCluster(ctx context.Context, g *graph.Graph, s *pattern.Schedule, chip accel.Config, cf clusterFlags, pes, width int, verify, metricsF bool, tf telemetryFlags) error {
	ccfg := cluster.DefaultConfig(chip.Scheme, cf.chips)
	ccfg.Chip = chip
	ccfg.Partition = cluster.Mode(cf.partition)
	ccfg.PartitionSeed = cf.seed
	ccfg.Steal = cf.steal
	cl, err := cluster.New(g, s, ccfg)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %s\n", cl.Partition())
	res, err := cl.RunContext(ctx)
	if err != nil {
		if errors.Is(err, sim.ErrCancelled) {
			eng := cl.Engine()
			fmt.Printf("\ninterrupted at cycle %d after %d events\n", int64(eng.Now()), eng.Processed)
		}
		return err
	}

	fmt.Printf("\nscheme=%s chips=%d pes/chip=%d width=%d partition=%s\n",
		res.Scheme, res.Chips, pes, width, res.Partition)
	fmt.Printf("cycles:          %d\n", res.Cycles)
	fmt.Printf("embeddings:      %d\n", res.Embeddings)
	fmt.Printf("tasks:           %d internal + %d leaf\n", res.Tasks, res.LeafTasks)
	fmt.Printf("occupancy:       max %.1f%% mean %.1f%% (max/mean %.2f)\n",
		res.MaxOccupancy*100, res.MeanOccupancy*100, res.ImbalanceRatio())
	fmt.Printf("migrations:      %d subtrees (%d retries)\n", res.Migrations, res.AdoptRetries)
	fmt.Printf("interconnect:    %d messages, %d lines\n", res.InterMessages, res.InterLines)
	for i, st := range res.PerChip {
		fmt.Printf("  chip%d: %d roots, %d tasks, %d embeddings, occ %.1f%%, migrated out=%d in=%d\n",
			i, st.Vertices, st.Tasks, st.Embeddings, st.Occupancy*100, st.MigratedOut, st.MigratedIn)
	}
	if tf.timeseriesOut != "" {
		if err := writeTimeSeries(tf.timeseriesOut, res.Telemetry); err != nil {
			return err
		}
		fmt.Printf("telemetry series: %s (%d epochs, every %d cycles)\n",
			tf.timeseriesOut, len(res.Telemetry.Cycles), res.Telemetry.Interval)
	}
	if metricsF {
		reg := cl.Metrics()
		fmt.Printf("\nhardware counters:\n%s", reg.Report())
		if err := reg.Verify(); err != nil {
			return err
		}
		fmt.Printf("metrics: all %d conservation invariants hold\n", reg.Invariants())
	}
	if verify {
		want := mine.Count(g, s)
		if want != res.Embeddings {
			return fmt.Errorf("VERIFY FAILED: cluster found %d embeddings, software miner %d", res.Embeddings, want)
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
