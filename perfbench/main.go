// Command perfbench is the repository benchmark. It runs one workload
// for a fixed time, checks every output, and prints its metrics as one
// JSON line:
//
//	go run . --workload sim-as-4cl --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) records spans around every call into a layer plus a CPU
// profile, reports the per-layer metrics, and writes the spans and the
// per-package CPU table under --out. --workload all runs every workload
// in turn; --seconds 0 runs each at its minimal length (the smoke mode).
// See README.md for the workloads and what each metric should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
	"unsafe"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	simWorkload(simAs4cl),
	simWorkload(simOrTc),
	simWorkload(cluster16YoTtE),
	{"serve-mix", runServeMix},
}

// runConfig is what a workload run is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	log     io.Writer
}

// window is the measured part of a run: after set-up, before teardown.
func (c runConfig) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// report is a workload's outcome: its operation tally, the end-to-end
// metrics (untraced runs) or per-layer metrics (traced runs), and notes
// printed beside the result.
type report struct {
	tally
	metrics map[string]float64
	notes   []string
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run (0 = minimal length)")
	trace := fs.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	outDir := fs.String("out", ".bench_build/trace", "directory traced runs write their spans and CPU table to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: want --seconds >= 0, --trace 0|1 and no positional arguments")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have all", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, ", %s", w.name)
		}
		fmt.Fprintln(stderr, ")")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, log: stderr}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, w := range selected {
		rep, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		line := resultLine{
			Correct:   rep.failed == 0,
			Attempted: rep.attempted,
			Failed:    rep.failed,
			Metrics:   map[string]metricOut{},
		}
		fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", w.name, cfg.seed, *trace)
		for _, d := range defs {
			v := rep.metrics[d.name]
			line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
			fmt.Fprintf(stdout, "  %-32s %16.6g %s\n", d.name, v, d.unit)
		}
		for _, n := range rep.notes {
			fmt.Fprintf(stdout, "  note: %s\n", n)
		}
		for _, r := range rep.reasons {
			fmt.Fprintf(stdout, "  failure: %s\n", r)
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	return 0
}

// A run sets up at least setupReps times and for at least setupTime in
// all; setup_s is the median. The simulation workloads' set-ups take tens
// of milliseconds, so a handful alone would leave the median to chance.
const (
	setupReps = 5
	setupTime = time.Second
)

func moreSetups(times []float64) bool {
	return len(times) < setupReps || sum(times) < setupTime.Seconds()
}

// costs are the process-wide costs of a measured window.
type costs struct {
	allocBytes uint64
	gcCycles   uint32
	cpu        time.Duration // user + system
	peakHeap   uint64        // highest live heap marked by a GC
}

// meter measures a window's process-wide costs. The peak heap is the
// largest live heap a garbage collection marked during the window,
// sampled every millisecond from runtime/metrics (which does not
// stop the world). Unlike the allocated heap, whose sawtooth peaks
// wherever the collector happens to start, the marked live heap repeats
// from run to run.
type meter struct {
	mem0 runtime.MemStats
	cpu0 time.Duration
	stop chan struct{}
	done chan struct{}
	peak uint64 // owned by the sampler goroutine until done closes
}

const heapMetric = "/gc/heap/live:bytes"

func heapBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuTime()
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			m.peak = max(m.peak, heapBytes(s))
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *meter) end() costs {
	close(m.stop)
	<-m.done
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	if mem1.NumGC == m.mem0.NumGC {
		// No collection ran in the window: its peak is at most the heap
		// allocated now.
		m.peak = max(m.peak, mem1.HeapAlloc)
	}
	return costs{
		allocBytes: mem1.TotalAlloc - m.mem0.TotalAlloc,
		gcCycles:   mem1.NumGC - m.mem0.NumGC,
		cpu:        cpuTime() - m.cpu0,
		peakHeap:   m.peak,
	}
}

// cpuTime is the process's user + system CPU time.
func cpuTime() time.Duration { return clockTime(clockProcessCPU) }

// threadCPUTime is the calling thread's user + system CPU time; the
// caller holds runtime.LockOSThread so its goroutine stays on the thread.
func threadCPUTime() time.Duration { return clockTime(clockThreadCPU) }

// The CPU-time clocks of clock_gettime(2). They read the scheduler's
// nanosecond count; getrusage(2) splits it by timer ticks, which made a
// 20 ms span read in steps of 4 ms.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func clockTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// putCosts records the window's memory metrics, shared by every workload.
func (r *report) putCosts(c costs, ops int) {
	r.metrics["alloc_mb_per_op"] = float64(c.allocBytes) / 1e6 / float64(max(ops, 1))
	r.metrics["peak_heap_mb"] = float64(c.peakHeap) / 1e6
}

// putLatency records the median and tail of per-operation latencies (in
// seconds, at the reference speed) and notes which percentile the tail is.
func (r *report) putLatency(lat []float64) {
	p := tailPercentile(len(lat))
	r.metrics["lat_p50_ms"] = median(lat) * 1e3
	r.metrics["lat_tail_ms"] = percentile(lat, p) * 1e3
	r.notef("lat_tail_ms is p%.4g of %d samples", p, len(lat))
}

// profiler records a CPU profile of the traced part of a run.
type profiler struct{ buf bytes.Buffer }

// profileHz is the CPU sampling rate. The serving layers' own shares are
// well under 1% of a run, which reads as 0 at runtime/pprof's fixed
// 100 Hz. Setting the rate first makes StartCPUProfile keep it (the
// runtime prints one warning about the rate to standard error).
const profileHz = 500

func startProfile() (*profiler, error) {
	p := &profiler{}
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and groups it by package into the cpu.* and
// cpu.runtime_gc metrics.
func (p *profiler) stop(r *report) (*cpuTable, error) {
	pprof.StopCPUProfile()
	t, err := buildCPUTable(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	for _, c := range cpuPackages {
		r.metrics[c.metric] = t.flatPct(c.pkg)
	}
	r.metrics["cpu.runtime_gc"] = t.GCPct
	return t, nil
}

// finishTrace writes the spans, self times and CPU table, and prints the
// table to the log.
func finishTrace(cfg runConfig, name string, rec *recorder, t *cpuTable, r *report, reqs []requestTrace) error {
	rec.mu.Lock()
	var spans []span
	for _, s := range rec.spans {
		if s.ID != 0 { // a span left open by a contained panic has no end
			spans = append(spans, s)
		}
	}
	rec.mu.Unlock()
	tf := &traceFile{Workload: name, Seed: cfg.seed, Self: selfTimes(spans), CPU: t.Rows,
		Requests: reqs, Metrics: r.metrics, Spans: spans}
	path, err := tf.write(cfg.outDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "%s: CPU by package (%d samples), flat%% / cum%%\n", name, t.Samples)
	for i, row := range t.Rows {
		if i == 15 {
			break
		}
		fmt.Fprintf(cfg.log, "  %-36s %6.2f %6.2f\n", row.Pkg, row.FlatPct, row.CumPct)
	}
	fmt.Fprintf(cfg.log, "%s: self time by span\n", name)
	for _, s := range tf.Self {
		fmt.Fprintf(cfg.log, "  %-28s n=%-5d total %10.2f ms  self %10.2f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
	fmt.Fprintf(cfg.log, "%s: trace written to %s\n", name, path)
	return nil
}
