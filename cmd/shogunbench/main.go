// Command shogunbench regenerates the paper's evaluation tables and
// figures (see DESIGN.md's per-experiment index).
//
// Usage:
//
//	shogunbench                     # run everything (full scale)
//	shogunbench -exp fig9           # one experiment
//	shogunbench -quick -exp fig12   # miniature graphs, seconds not minutes
//	shogunbench -list               # list experiment ids
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"shogun/internal/bench"
	"shogun/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (default: all)")
		quick    = flag.Bool("quick", false, "use miniature graphs and trimmed sweeps")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
		verbose  = flag.Bool("v", false, "per-cell progress to stderr")
		format   = flag.String("format", "text", "output format: text|csv|markdown")
		chart    = flag.Int("chart", -1, "also render tables as ASCII bars of the given column (0 = last)")
		save     = flag.String("save", "", "run all experiments and save a JSON baseline")
		html     = flag.String("html", "", "run all experiments and write a self-contained HTML report")
		check    = flag.String("check", "", "run all experiments and compare against a JSON baseline")
		list     = flag.Bool("list", false, "list experiments and exit")
		cellTO   = flag.Duration("celltimeout", 0, "wall-clock budget per grid cell (0 = none)")
		cellEv   = flag.Int64("cellevents", 0, "event budget per grid cell (0 = none)")
		metricsF = flag.Bool("metrics", false, "log a per-cell hardware-counter digest (implies -v)")
		traceDir = flag.String("trace-out", "", "write one Chrome trace JSON per cell into this directory")
		sampleEv = flag.Int64("sample-every", 0, "turn on the telemetry epoch sampler in every cell (cycles between samples, 0 = off)")
		httpAddr = flag.String("http", "", "serve a live progress page on host:port (\":0\" picks a port)")
	)
	flag.Parse()
	if *sampleEv < 0 {
		fmt.Fprintf(os.Stderr, "shogunbench: -sample-every must be a positive cycle count (got %d)\n", *sampleEv)
		os.Exit(1)
	}
	if *httpAddr != "" {
		if err := telemetry.ValidateAddr(*httpAddr); err != nil {
			fmt.Fprintln(os.Stderr, "shogunbench:", err)
			os.Exit(1)
		}
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	// SIGINT/SIGTERM cancel the cell workers between cells; completed
	// cells keep their results and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := bench.Options{Quick: *quick, Workers: *workers, Ctx: ctx, CellTimeout: *cellTO, CellMaxEvents: *cellEv,
		Metrics: *metricsF, TraceDir: *traceDir, SampleEvery: *sampleEv}
	if *verbose || *metricsF {
		o.Log = os.Stderr
	}
	if *httpAddr != "" {
		prog := telemetry.NewProgress()
		o.Progress = prog
		srv, err := telemetry.NewServer(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "shogunbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		srv.HandleText("/progress", prog.Text)
		srv.HandleJSON("/progress.json", func() any {
			done, failed, total := prog.Counts()
			return map[string]int{"done": done, "failed": failed, "total": total}
		})
		fmt.Fprintf(os.Stderr, "live progress: http://%s/progress\n", srv.Addr())
	}

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "shogunbench: interrupted; partial results above")
		}
		fmt.Fprintln(os.Stderr, "shogunbench:", err)
		os.Exit(1)
	}

	if *save != "" || *check != "" || *html != "" {
		tables, err := bench.CollectAll(o)
		if err != nil {
			fail(err)
		}
		if *save != "" {
			if err := bench.SaveBaseline(*save, tables); err != nil {
				fail(err)
			}
			fmt.Printf("baseline saved: %s (%d tables)\n", *save, len(tables))
		}
		if *check != "" {
			if err := bench.CheckBaseline(*check, tables); err != nil {
				fail(fmt.Errorf("REGRESSION: %w", err))
			}
			fmt.Printf("baseline check passed: %d tables match %s\n", len(tables), *check)
		}
		if *html != "" {
			f, err := os.Create(*html)
			if err != nil {
				fail(err)
			}
			if err := bench.RenderHTML(f, tables); err != nil {
				f.Close()
				fail(fmt.Errorf("html: %w", err))
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Printf("HTML report written: %s\n", *html)
		}
		return
	}

	if *exp == "" {
		if err := bench.RunAllFormat(o, os.Stdout, *format); err != nil {
			fail(err)
		}
		return
	}
	e, err := bench.Lookup(*exp)
	if err != nil {
		fail(err)
	}
	if o.Progress != nil {
		o.Progress.SetStage(e.ID)
	}
	tables, err := e.Run(o)
	if err != nil {
		fail(err)
	}
	for _, t := range tables {
		out, err := t.Format(*format)
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
		if *chart >= 0 {
			fmt.Println(t.Chart(*chart))
		}
	}
}
