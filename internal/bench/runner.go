package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shogun/internal/accel"
	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/metrics"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/serve"
	"shogun/internal/sim"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

func log(v float64) float64 { return math.Log(v) }
func exp(v float64) float64 { return math.Exp(v) }

// Options configures an experiment run.
type Options struct {
	// Quick shrinks the dataset analogues (~8x fewer edges) and trims
	// sweeps so an experiment finishes in seconds; used by the
	// testing.B benchmarks. Full mode reproduces the complete grids.
	Quick bool
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// Log, when non-nil, receives one progress line per finished cell.
	Log io.Writer
	// Verify cross-checks every simulated embedding count against the
	// software miner (default on; the harness refuses to report numbers
	// from a simulator that miscounts).
	SkipVerify bool
	// Ctx, when non-nil, cancels the whole run: in-flight cells stop at
	// their next watchdog checkpoint and runCells returns the
	// cancellation error.
	Ctx context.Context
	// CellTimeout bounds each cell's wall-clock time (0 = none); a cell
	// exceeding it is recorded as failed and the grid continues.
	CellTimeout time.Duration
	// CellMaxEvents bounds each cell's simulation event count (0 = none).
	CellMaxEvents int64
	// TraceDir, when set, writes one Chrome-trace JSON per cell into the
	// directory (file name: cell key with "/" replaced by "_").
	TraceDir string
	// Metrics, when set, logs a per-cell hardware-counter digest after
	// each successful cell (counter conservation itself is verified
	// inside every run).
	Metrics bool
	// SampleEvery, when > 0, turns on the telemetry epoch sampler for
	// every cell that does not already configure one (cycles between
	// samples; see accel.Config.SampleEvery).
	SampleEvery int64
	// Progress, when non-nil, receives per-cell completion updates for
	// the live progress page (-http on shogunbench).
	Progress *telemetry.Progress
}

func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// dataset returns the analogue (or its quick-mode miniature).
func (o Options) dataset(name string) *graph.Graph {
	if !o.Quick {
		return datasets.MustGet(name)
	}
	return quickGraph(name)
}

var (
	quickMu    sync.Mutex
	quickCache = map[string]*graph.Graph{}
)

// quickGraph builds miniature analogues preserving each dataset's
// qualitative regime at ~1/8 the edge count.
func quickGraph(name string) *graph.Graph {
	quickMu.Lock()
	defer quickMu.Unlock()
	if g, ok := quickCache[name]; ok {
		return g
	}
	var g *graph.Graph
	switch name {
	case "wi":
		g = gen.RMAT(1<<11, 8000, 0.55, 0.17, 0.17, 101)
	case "as":
		g = gen.PowerLawCluster(2200, 6, 0.6, 102)
	case "yo":
		g = gen.RMAT(1<<12, 6000, 0.62, 0.14, 0.14, 103)
	case "pa":
		g = gen.NearRegular(10000, 9, 104)
	case "lj":
		g = gen.RMAT(1<<12, 20000, 0.55, 0.17, 0.17, 105)
	case "or":
		g = gen.RMAT(1<<11, 24000, 0.45, 0.22, 0.22, 106)
	default:
		panic("bench: unknown dataset " + name)
	}
	quickCache[name] = g
	return g
}

// Workloads returns the paper's nine evaluated schedules.
func Workloads() []datasets.Workload { return datasets.Workloads() }

// cell is one simulation to run.
type cell struct {
	key string
	g   *graph.Graph
	s   *pattern.Schedule
	cfg accel.Config
}

// runCells executes cells concurrently (each simulation is single-
// threaded and independent) and returns a Grid keyed by cell key. A
// fixed pool of workers drains a job channel, so full-mode grids never
// create more goroutines than they can run.
//
// A failing cell — watchdog abort, verification mismatch, contained
// invariant panic — does NOT abort the batch: it is recorded in the
// Grid's failure list (surfaced in the run summary with its key) and
// the remaining cells complete. The only returned error is whole-run
// cancellation via Options.Ctx.
func runCells(o Options, cells []cell) (*Grid, error) {
	res := make([]*accel.Result, len(cells))
	errs := make([]error, len(cells))
	runPool(o, len(cells), func(i int) (string, error) {
		res[i], errs[i] = runOne(o, cells[i])
		return cells[i].key, errs[i]
	})
	grid := &Grid{res: map[string]*accel.Result{}}
	for i, c := range cells {
		if errs[i] != nil {
			o.logf("  FAILED %-24s %v", c.key, errs[i])
			grid.failures = append(grid.failures, CellFailure{Key: c.key, Err: errs[i]})
			continue
		}
		grid.res[c.key] = res[i]
	}
	grid.sortFailures()
	if err := o.ctx().Err(); err != nil {
		return grid, fmt.Errorf("bench: run cancelled: %w", err)
	}
	return grid, nil
}

// runPool runs job(i) for every i < n on a fixed pool of o.workers()
// goroutines draining a job channel, and reports each finished job's
// key and error to o.Progress: the one bounded pool every sweep's cells
// run on.
func runPool(o Options, n int, job func(i int) (key string, err error)) {
	if o.Progress != nil {
		o.Progress.Add(n)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(o.workers(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				key, err := job(i)
				if o.Progress != nil {
					o.Progress.Cell(key, err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

var (
	// countCache holds golden (graph, schedule) embedding counts behind
	// the daemon's single-flight LRU: concurrent cells for the same key
	// share one mine, and a long sweep over many generated graphs cannot
	// grow the cache without bound. Each entry is charged a nominal size
	// so the budget is an entry-count bound (the int64 itself is tiny;
	// what the budget limits is key accumulation).
	countCache = serve.NewCache[int64](goldenCacheBudget)
	// countComputes counts actual golden mines (test hook for the
	// single-flight property).
	countComputes int64
)

// goldenCacheBudget bounds the golden-count cache: countEntryBytes per
// cached key, 4096 keys — far beyond any real sweep, small in memory.
const (
	countEntryBytes   = 256
	goldenCacheBudget = 4096 * countEntryBytes
)

// expectedCount returns the software miner's embedding count for a
// (graph, schedule) pair, computed once per key by the parallel miner
// and cached across cells. The key holds the graph's ID, not its
// address: a graph allocated where a collected one lived must not be
// served the old graph's count.
func expectedCount(g *graph.Graph, s *pattern.Schedule, workers int) int64 {
	key := fmt.Sprintf("%d/%s", g.ID(), s.Name)
	val, _ := countCache.Get(key, func() (int64, int64, error) {
		atomic.AddInt64(&countComputes, 1)
		return mine.ParallelCount(g, s, workers).Embeddings, countEntryBytes, nil
	})
	return val
}

// runOne runs a single cell under the run governor: the per-cell
// watchdog budgets from Options are layered onto the cell's config, the
// simulation observes Options.Ctx, and any panic escaping the stack
// below (accelerator build, golden mine, verification) is contained
// into a *sim.InvariantError so one poisoned cell cannot kill the grid.
func runOne(o Options, c cell) (res *accel.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(*sim.InvariantError); ok {
				res, err = nil, ie // e.g. re-raised by the golden miner
				return
			}
			res = nil
			err = &sim.InvariantError{
				Op:         "bench: cell " + c.key,
				PanicValue: r,
				Stack:      string(debug.Stack()),
			}
		}
	}()
	cfg := c.cfg
	if o.CellTimeout > 0 && (cfg.MaxWall == 0 || o.CellTimeout < cfg.MaxWall) {
		cfg.MaxWall = o.CellTimeout
	}
	if o.CellMaxEvents > 0 && (cfg.MaxEvents == 0 || o.CellMaxEvents < cfg.MaxEvents) {
		cfg.MaxEvents = o.CellMaxEvents
	}
	if o.SampleEvery > 0 && cfg.SampleEvery == 0 {
		cfg.SampleEvery = sim.Time(o.SampleEvery)
	}
	var chrome *trace.Chrome
	if o.TraceDir != "" {
		chrome = trace.NewChrome()
		cfg.Tracer = chrome
	}
	a, err := accel.New(c.g, c.s, cfg)
	if err != nil {
		return nil, err
	}
	res, err = a.RunContext(o.ctx())
	if err != nil {
		return nil, err
	}
	if !o.SkipVerify {
		want := expectedCount(c.g, c.s, o.workers())
		if res.Embeddings != want {
			return nil, fmt.Errorf("count mismatch: sim=%d software=%d", res.Embeddings, want)
		}
	}
	if chrome != nil {
		chrome.AddTimeSeries(res.Telemetry)
		if err := writeCellTrace(o.TraceDir, c.key, chrome); err != nil {
			return nil, err
		}
	}
	if o.Metrics {
		reg := a.Metrics()
		o.logf("  %-24s metrics: %d invariants OK; tasks=%d noc-msgs=%d dram=%d",
			c.key, reg.Invariants(), mustValue(reg, "tasks/created"),
			mustValue(reg, "noc/messages"),
			mustValue(reg, "dram/reads")+mustValue(reg, "dram/writes"))
	}
	o.logf("  %-24s %12d cycles  IU=%5.1f%%  L1=%5.1f%%", c.key, res.Cycles, res.IUUtil*100, res.L1HitRate*100)
	return res, nil
}

func mustValue(reg *metrics.Registry, path string) int64 {
	v, _ := reg.Value(path)
	return v
}

// writeCellTrace stores one cell's Chrome trace under dir.
func writeCellTrace(dir, key string, c *trace.Chrome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ReplaceAll(key, "/", "_") + ".trace.json"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
