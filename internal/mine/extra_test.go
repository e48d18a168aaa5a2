package mine

import (
	"math/rand"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/pattern"
)

func TestParallelCountMatchesSerial(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 13)
	for _, p := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.Diamond()} {
		s, err := pattern.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		serial := NewMiner(g, s).Run()
		par := ParallelCount(g, s, 4)
		if par.Embeddings != serial.Embeddings {
			t.Errorf("%s: parallel %d != serial %d", s.Name, par.Embeddings, serial.Embeddings)
		}
		if par.Tasks() != serial.Tasks() {
			t.Errorf("%s: task counts differ: %d != %d", s.Name, par.Tasks(), serial.Tasks())
		}
		if par.SetOpElements != serial.SetOpElements {
			t.Errorf("%s: set-op accounting differs", s.Name)
		}
	}
	// workers <= 1 falls back to serial.
	s, _ := pattern.Build(pattern.Triangle())
	if ParallelCount(g, s, 1).Embeddings != NewMiner(g, s).Run().Embeddings {
		t.Error("single-worker fallback broken")
	}
}

// TestRandomPatternsAgainstBruteForce generates random connected patterns
// and validates the full schedule pipeline (order, restrictions, plans)
// against naive enumeration — the strongest property test of the
// GraphPi-substitute.
func TestRandomPatternsAgainstBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(99))
	g := gen.ErdosRenyi(18, 60, 77)
	tried := 0
	for tried < 25 {
		n := 3 + rng.Intn(3) // 3..5 vertices
		var edges [][2]int
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.6 {
					edges = append(edges, [2]int{i, j})
				}
			}
		}
		p, err := pattern.NewPattern("rand", n, edges)
		if err != nil || !p.Connected() {
			continue
		}
		tried++
		for _, induced := range []bool{false, true} {
			want, err := BruteForceCount(g, p, induced)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CountPattern(g, p, induced)
			if err != nil {
				t.Fatalf("pattern %s: %v", p, err)
			}
			if got != want {
				t.Fatalf("random pattern %s induced=%v: miner=%d brute=%d", p, induced, got, want)
			}
		}
	}
}

// TestOptimizedSchedulesAgree verifies the cost-model optimizer preserves
// counts for every evaluated pattern.
func TestOptimizedSchedulesAgree(t *testing.T) {
	g := gen.RMAT(256, 1400, 0.6, 0.15, 0.15, 21)
	shape := pattern.ShapeOf(g.NumVertices(), g.NumEdges())
	for _, p := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle(), pattern.Diamond(), pattern.FourCycle(), pattern.House()} {
		for _, induced := range []bool{false, true} {
			def, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := pattern.Optimize(p, shape, induced)
			if err != nil {
				t.Fatal(err)
			}
			a, b := Count(g, def), Count(g, opt)
			if a != b {
				t.Errorf("%s induced=%v: default order %v=%d, optimized %v=%d",
					p.Name(), induced, def.Order, a, opt.Order, b)
			}
		}
	}
}
