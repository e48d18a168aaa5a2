// Command mine runs the software reference miner: exact pattern counting
// with per-depth task statistics, no simulation.
//
// Usage:
//
//	mine -dataset yo -pattern 4cl
//	mine -graph edges.txt -pattern dia_v -list 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"shogun/internal/datasets"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "dataset analogue: wi|as|yo|pa|lj|or")
		graphArg = flag.String("graph", "", "edge-list file (alternative to -dataset)")
		patName  = flag.String("pattern", "tc", "pattern name (tc|tt[_e|_v]|4cl|5cl|dia[_e|_v]|4cyc[_e|_v]|house)")
		list     = flag.Int("list", 0, "print the first N embeddings")
		census   = flag.Int("census", 0, "run a full k-graphlet census instead of one pattern (3..6)")
		workers  = flag.Int("workers", 0, "parallel mining workers (0 = GOMAXPROCS)")
		schedule = flag.Bool("schedule", false, "print the generated schedule and exit")
	)
	flag.Parse()
	// SIGINT/SIGTERM cancel the mining workers between root chunks and
	// the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *dataset, *graphArg, *patName, *list, *census, *workers, *schedule); err != nil {
		fmt.Fprintln(os.Stderr, "mine:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, dataset, graphArg, patName string, list, census, workers int, scheduleOnly bool) error {
	if census > 0 {
		return runCensus(dataset, graphArg, census, workers)
	}
	p, err := pattern.ByName(patName)
	if err != nil {
		return err
	}
	s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: strings.HasSuffix(patName, "_v")})
	if err != nil {
		return err
	}
	if scheduleOnly {
		fmt.Print(s.String())
		return nil
	}

	var g *graph.Graph
	switch {
	case dataset != "":
		g, err = datasets.Get(dataset)
	case graphArg != "":
		var f *os.File
		if f, err = os.Open(graphArg); err == nil {
			defer f.Close()
			g, err = graph.ReadEdgeList(f, 0)
		}
	default:
		return fmt.Errorf("need -dataset or -graph")
	}
	if err != nil {
		return err
	}

	var res *mine.Result
	start := time.Now()
	if list > 0 {
		// Embedding listing needs the sequential visitor-driven miner.
		m := mine.NewMiner(g, s)
		printed := 0
		m.SetVisitor(func(match []graph.VertexID) {
			if printed < list {
				fmt.Printf("embedding %v\n", match)
				printed++
			}
		})
		res = m.Run()
	} else {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		res, err = mine.ParallelCountContext(ctx, g, s, workers)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("pattern:    %s\n", s.Name)
	fmt.Printf("embeddings: %d\n", res.Embeddings)
	fmt.Printf("tasks/depth:")
	for _, t := range res.TasksPerDepth {
		fmt.Printf(" %d", t)
	}
	fmt.Println()
	fmt.Printf("intermediate lines/task: %.2f (Table 2 metric)\n", res.AvgIntermediateLinesPerTask())
	fmt.Printf("set-op elements: %d\n", res.SetOpElements)
	fmt.Printf("elapsed: %v\n", elapsed)
	return nil
}

func runCensus(dataset, graphArg string, k, workers int) error {
	g, err := loadGraph(dataset, graphArg)
	if err != nil {
		return err
	}
	start := time.Now()
	entries, err := mine.Census(g, k, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %16s %16s\n", "pattern", "edges", "vertex-induced", "edge-induced")
	for _, e := range entries {
		fmt.Printf("%-8s %8d %16d %16d\n", e.Pattern.Name(), e.Pattern.NumEdges(), e.Induced, e.EdgeInduced)
	}
	fmt.Printf("elapsed: %v\n", time.Since(start))
	return nil
}

func loadGraph(dataset, graphArg string) (*graph.Graph, error) {
	switch {
	case dataset != "":
		return datasets.Get(dataset)
	case graphArg != "":
		f, err := os.Open(graphArg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f, 0)
	}
	return nil, fmt.Errorf("need -dataset or -graph")
}
