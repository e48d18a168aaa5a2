package shogun_test

import (
	"bytes"
	"strings"
	"testing"

	"shogun"
)

func TestOptimizedScheduleThroughAPI(t *testing.T) {
	g := shogun.GenerateRMAT(1<<10, 6000, 0.6, 0.15, 0.15, 9)
	p := shogun.TailedTriangle()
	def, _ := shogun.BuildSchedule(p, false)
	opt, err := shogun.OptimizeSchedule(p, shogun.ShapeOf(g), false)
	if err != nil {
		t.Fatal(err)
	}
	if shogun.Count(g, def) != shogun.Count(g, opt) {
		t.Fatal("optimized schedule changed the count")
	}
}

func TestParsePatternAPI(t *testing.T) {
	p, err := shogun.ParsePattern("square", "0-1,1-2,2-3,3-0")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := shogun.BuildSchedule(p, false)
	grid, _ := shogun.NewGraph(4, []shogun.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	if got := shogun.Count(grid, s); got != 1 {
		t.Fatalf("squares in C4 = %d", got)
	}
}

func TestParallelCountAPI(t *testing.T) {
	g := shogun.GenerateChungLu(2000, 12000, 0.6, 200, 4)
	s, _ := shogun.BuildSchedule(shogun.Triangle(), false)
	if shogun.ParallelCount(g, s, 4).Embeddings != shogun.Count(g, s) {
		t.Fatal("parallel count disagrees")
	}
}

func TestTraceThroughAPI(t *testing.T) {
	g := shogun.GenerateErdosRenyi(200, 900, 6)
	s, _ := shogun.BuildSchedule(shogun.Triangle(), false)
	var buf bytes.Buffer
	cfg := shogun.DefaultSimConfig(shogun.SchemeShogun)
	cfg.NumPEs = 2
	cfg.Tracer = shogun.NewJSONLTracer(&buf)
	res, err := shogun.Simulate(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if int64(lines) != res.Tasks {
		t.Fatalf("trace lines %d != tasks %d", lines, res.Tasks)
	}

	sum := shogun.NewTraceSummary()
	cfg.Tracer = sum
	if _, err := shogun.Simulate(g, s, cfg); err != nil {
		t.Fatal(err)
	}
	if len(sum.Report()) == 0 {
		t.Fatal("empty trace summary")
	}
}

func TestWriteGraphAPI(t *testing.T) {
	g, _ := shogun.NewGraph(3, []shogun.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	if err := shogun.WriteGraph(g, &buf); err != nil {
		t.Fatal(err)
	}
	g2, err := shogun.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 2 {
		t.Fatalf("round trip lost edges: %d", g2.NumEdges())
	}
}
