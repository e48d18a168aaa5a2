package pattern

import (
	"math"
	"testing"
)

func TestShapeOf(t *testing.T) {
	s := ShapeOf(100, 495) // ~every 10th pair adjacent
	if s.Vertices != 100 {
		t.Fatalf("vertices = %v", s.Vertices)
	}
	if math.Abs(s.EdgeProb-0.099) > 1e-9 {
		t.Fatalf("edge prob = %v", s.EdgeProb)
	}
	if ShapeOf(0, 0).Vertices < 2 {
		t.Fatal("degenerate shape not clamped")
	}
	if ShapeOf(2, 100).EdgeProb > 1 {
		t.Fatal("edge prob not clamped to 1")
	}
}

func TestEstimateCostPrefersDensePrefix(t *testing.T) {
	// Tailed triangle: matching the triangle first prunes much earlier
	// than matching the tail early on a sparse graph.
	p := TailedTriangle()
	shape := ShapeOf(100000, 500000) // sparse
	triangleFirst := EstimateCost(p, []int{0, 1, 2, 3}, shape)
	tailSecond := EstimateCost(p, []int{0, 3, 1, 2}, shape)
	if triangleFirst >= tailSecond {
		t.Errorf("cost(triangle-first)=%v not below cost(tail-second)=%v", triangleFirst, tailSecond)
	}
}

func TestOptimizePicksConnectedLowCostOrder(t *testing.T) {
	shape := ShapeOf(100000, 500000)
	for _, p := range []Pattern{Triangle(), FourClique(), TailedTriangle(), Diamond(), FourCycle(), House(), wheel4()} {
		s, err := Optimize(p, shape, false)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		// The chosen order must be valid and never costlier than the
		// greedy default.
		def, err := Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if EstimateCost(p, s.Order, shape) > EstimateCost(p, def.Order, shape)+1e-9 {
			t.Errorf("%s: optimizer picked a worse order %v than default %v", p.Name(), s.Order, def.Order)
		}
		if err := checkConnectedOrder(p, s.Order); err != nil {
			t.Errorf("%s: optimized order invalid: %v", p.Name(), err)
		}
	}
}

func TestOptimizeRejectsDisconnected(t *testing.T) {
	p, _ := NewPattern("cc", 4, [][2]int{{0, 1}, {2, 3}})
	if _, err := Optimize(p, ShapeOf(100, 200), false); err == nil {
		t.Fatal("optimizer accepted disconnected pattern")
	}
}

func TestParse(t *testing.T) {
	p, err := Parse("tri", "0-1, 1-2, 2-0")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 3 || p.NumEdges() != 3 || len(p.Automorphisms()) != 6 {
		t.Fatalf("parsed triangle wrong: %s", p)
	}
	for _, bad := range []string{"", "0", "0-", "a-b", "0-1,,2"} {
		if _, err := Parse("x", bad); err == nil && bad != "0-1,,2" {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
	// Blank segments are skipped; "0-1,,2" has a malformed trailing part.
	if _, err := Parse("x", "0-1,,2"); err == nil {
		t.Error("trailing junk accepted")
	}
}

// wheel4 is a 4-cycle plus a hub adjacent to all of its vertices.
func wheel4() Pattern {
	return mustPattern("wheel4", 5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}, {1, 4}, {2, 4}, {3, 4}})
}

func TestCompleteBipartiteAndWheel(t *testing.T) {
	k22 := mustPattern("k22", 4, [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}})
	if k22.N() != 4 || k22.NumEdges() != 4 {
		t.Fatalf("K22: %s", k22)
	}
	// K22 is the 4-cycle: automorphism group of order 8.
	if got := len(k22.Automorphisms()); got != 8 {
		t.Fatalf("|Aut(K22)| = %d", got)
	}
	w4 := wheel4()
	if w4.N() != 5 || w4.NumEdges() != 8 {
		t.Fatalf("wheel4: %s", w4)
	}
	if !w4.Connected() {
		t.Fatal("wheel disconnected")
	}
}
