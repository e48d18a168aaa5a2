package gen

import (
	"sort"
	"testing"

	"shogun/internal/graph"
)

func TestDeterminism(t *testing.T) {
	mk := map[string]func() *graph.Graph{
		"er":   func() *graph.Graph { return ErdosRenyi(100, 400, 42) },
		"rmat": func() *graph.Graph { return RMAT(128, 600, 0.6, 0.15, 0.15, 42) },
		"ba":   func() *graph.Graph { return BarabasiAlbert(100, 3, 42) },
		"plc":  func() *graph.Graph { return PowerLawCluster(100, 3, 0.5, 42) },
		"nr":   func() *graph.Graph { return NearRegular(100, 6, 42) },
		"ws":   func() *graph.Graph { return WattsStrogatz(100, 3, 0.1, 42) },
	}
	for name, f := range mk {
		a, b := f(), f()
		if a.NumEdges() != b.NumEdges() {
			t.Errorf("%s: nondeterministic edge count %d vs %d", name, a.NumEdges(), b.NumEdges())
		}
		for v := 0; v < a.NumVertices(); v++ {
			na, nb := a.Neighbors(graph.VertexID(v)), b.Neighbors(graph.VertexID(v))
			if len(na) != len(nb) {
				t.Fatalf("%s: vertex %d degree differs", name, v)
			}
		}
	}
}

func TestSeedChangesGraph(t *testing.T) {
	a := RMAT(128, 600, 0.6, 0.15, 0.15, 1)
	b := RMAT(128, 600, 0.6, 0.15, 0.15, 2)
	same := true
	for v := 0; v < a.NumVertices() && same; v++ {
		na, nb := a.Neighbors(graph.VertexID(v)), b.Neighbors(graph.VertexID(v))
		if len(na) != len(nb) {
			same = false
		}
	}
	if same && a.NumEdges() == b.NumEdges() {
		// Extremely unlikely: identical degree sequences AND edge counts.
		t.Log("warning: different seeds produced suspiciously similar graphs")
	}
}

func TestRMATIsSkewed(t *testing.T) {
	skewed := RMAT(1<<12, 40000, 0.62, 0.14, 0.14, 7)
	uniform := ErdosRenyi(1<<12, 40000, 7)
	ss, su := skewed.ComputeStats(), uniform.ComputeStats()
	if ss.Skewness <= su.Skewness {
		t.Errorf("RMAT skewness %.2f not greater than ER skewness %.2f", ss.Skewness, su.Skewness)
	}
	if ss.MaxDegree <= 3*uniform.MaxDegree() {
		t.Errorf("RMAT max degree %d not much larger than ER max degree %d", ss.MaxDegree, su.MaxDegree)
	}
}

func TestNearRegularLowVariance(t *testing.T) {
	g := NearRegular(2000, 8, 9)
	s := g.ComputeStats()
	if s.DegreeStdDev > s.AvgDegree {
		t.Errorf("near-regular stddev %.2f exceeds mean %.2f", s.DegreeStdDev, s.AvgDegree)
	}
}

func TestPowerLawClusterHasTriangles(t *testing.T) {
	g := PowerLawCluster(500, 4, 0.8, 5)
	// Count triangles incident to vertex with max degree; must be nonzero.
	tri := 0
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(graph.VertexID(v))
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if g.HasEdge(nb[i], nb[j]) {
					tri++
				}
			}
		}
	}
	if tri == 0 {
		t.Error("PowerLawCluster produced no triangles")
	}
}

func TestCliqueAndGrid(t *testing.T) {
	k := Clique(5)
	if k.NumEdges() != 10 || k.MaxDegree() != 4 {
		t.Errorf("Clique(5): %d edges, max degree %d", k.NumEdges(), k.MaxDegree())
	}
	g := Grid(3, 4)
	if g.NumVertices() != 12 {
		t.Fatalf("Grid(3,4): %d vertices", g.NumVertices())
	}
	// 3*(4-1) horizontal + (3-1)*4 vertical = 9 + 8 = 17 edges.
	if g.NumEdges() != 17 {
		t.Errorf("Grid(3,4): %d edges, want 17", g.NumEdges())
	}
	// Grids are triangle-free.
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(graph.VertexID(v))
		for i := 0; i < len(nb); i++ {
			for j := i + 1; j < len(nb); j++ {
				if g.HasEdge(nb[i], nb[j]) {
					t.Fatal("grid contains a triangle")
				}
			}
		}
	}
}

func TestChungLuShape(t *testing.T) {
	g := ChungLu(4000, 30000, 0.6, 150, 7)
	s := g.ComputeStats()
	if s.MaxDegree > 3*150 {
		t.Errorf("degree cap blown: max %d", s.MaxDegree)
	}
	if s.Skewness < 1 {
		t.Errorf("Chung-Lu skewness %.2f too low", s.Skewness)
	}
	// Determinism.
	h := ChungLu(4000, 30000, 0.6, 150, 7)
	if h.NumEdges() != g.NumEdges() {
		t.Error("nondeterministic")
	}
	// Hubs must be spread: the top-5 degrees should be within 3x of each
	// other (unlike small-scale R-MAT's single mega-hub).
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.Degree(graph.VertexID(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	if degs[0] > 3*degs[4] {
		t.Errorf("hub concentration: top5 = %v", degs[:5])
	}
}
