// Command graphgen generates deterministic synthetic graphs and writes
// them as edge lists.
//
// Usage:
//
//	graphgen -kind rmat -n 65536 -m 500000 -a 0.6 -seed 7 -o graph.txt
//	graphgen -kind dataset -name lj -o lj.txt        # the paper analogues
//	graphgen -kind plc -n 9000 -k 11 -p 0.6 -o as.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
)

func main() {
	var (
		kind   = flag.String("kind", "rmat", "generator: rmat|er|ba|plc|nr|ws|chunglu|clique|grid|dataset")
		name   = flag.String("name", "", "dataset name for -kind dataset (wi|as|yo|pa|lj|or)")
		n      = flag.Int("n", 1024, "vertices (rows for grid)")
		m      = flag.Int("m", 4096, "edges to sample (cols for grid)")
		k      = flag.Int("k", 4, "per-vertex edges (ba/plc/nr/ws)")
		a      = flag.Float64("a", 0.6, "R-MAT a parameter")
		b      = flag.Float64("b", 0.15, "R-MAT b parameter")
		c      = flag.Float64("c", 0.15, "R-MAT c parameter")
		p      = flag.Float64("p", 0.5, "closure/rewire probability (plc/ws)")
		alpha  = flag.Float64("alpha", 0.6, "Chung-Lu weight exponent")
		maxDeg = flag.Int("maxdeg", 1000, "Chung-Lu expected-degree cap")
		seed   = flag.Int64("seed", 1, "random seed")
		out    = flag.String("o", "", "output file (default stdout)")
		stats  = flag.Bool("stats", false, "print graph statistics to stderr")
	)
	flag.Parse()
	if err := run(*kind, *name, *n, *m, *k, *a, *b, *c, *p, *alpha, *maxDeg, *seed, *out, *stats); err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
}

func run(kind, name string, n, m, k int, a, b, c, p, alpha float64, maxDeg int, seed int64, out string, stats bool) error {
	var g *graph.Graph
	var err error
	// Validate up front so bad flags produce a CLI error, not the
	// generators' documented boundary panic.
	switch kind {
	case "rmat":
		err = gen.ValidateRMAT(n, m, a, b, c)
	case "er":
		err = gen.ValidateErdosRenyi(n, m)
	case "ba":
		err = gen.ValidateBarabasiAlbert(n, k)
	case "plc":
		err = gen.ValidatePowerLawCluster(n, k, p)
	case "nr":
		err = gen.ValidateNearRegular(n, k)
	case "ws":
		err = gen.ValidateWattsStrogatz(n, k, p)
	case "chunglu":
		err = gen.ValidateChungLu(n, m, alpha, maxDeg)
	}
	if err != nil {
		return err
	}
	switch kind {
	case "rmat":
		g = gen.RMAT(n, m, a, b, c, seed)
	case "er":
		g = gen.ErdosRenyi(n, m, seed)
	case "ba":
		g = gen.BarabasiAlbert(n, k, seed)
	case "plc":
		g = gen.PowerLawCluster(n, k, p, seed)
	case "nr":
		g = gen.NearRegular(n, k, seed)
	case "ws":
		g = gen.WattsStrogatz(n, k, p, seed)
	case "chunglu":
		g = gen.ChungLu(n, m, alpha, maxDeg, seed)
	case "clique":
		g = gen.Clique(n)
	case "grid":
		g = gen.Grid(n, m)
	case "dataset":
		g, err = datasets.Get(name)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown generator %q", kind)
	}

	if stats {
		s := g.ComputeStats()
		fmt.Fprintf(os.Stderr, "vertices=%d edges=%d maxdeg=%d avgdeg=%.2f skew=%.2f\n",
			s.Vertices, s.Edges, s.MaxDegree, s.AvgDegree, s.Skewness)
	}

	var w *os.File = os.Stdout
	if out != "" {
		w, err = os.Create(out)
		if err != nil {
			return err
		}
		defer w.Close()
	}
	return g.WriteEdgeList(w)
}
