package mine

import (
	"context"
	"testing"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
)

func benchMine(b *testing.B, p pattern.Pattern, workers int) {
	g := gen.RMAT(1<<12, 25000, 0.6, 0.15, 0.15, 7)
	s, err := pattern.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if workers > 1 {
			ParallelCount(g, s, workers)
		} else {
			NewMiner(g, s).Run()
		}
	}
}

func BenchmarkMineTriangle(b *testing.B)     { benchMine(b, pattern.Triangle(), 1) }
func BenchmarkMineFourClique(b *testing.B)   { benchMine(b, pattern.FourClique(), 1) }
func BenchmarkMineDiamond(b *testing.B)      { benchMine(b, pattern.Diamond(), 1) }
func BenchmarkMineTriangle4Way(b *testing.B) { benchMine(b, pattern.Triangle(), 4) }

// Hybrid-vs-baseline benchmarks over the quick-mode R-MAT analogues of
// LiveJournal ("lj") and Orkut ("or") — the same generator parameters
// internal/bench uses. The *Hybrid/*MergeOnly pairs are the speedup
// evidence for the kernel dispatcher on the triangle-count hot path.
func quickLJ() *graph.Graph { return gen.RMAT(1<<12, 20000, 0.55, 0.17, 0.17, 105) }
func quickOR() *graph.Graph { return gen.RMAT(1<<11, 24000, 0.45, 0.22, 0.22, 106) }

func benchShape(b *testing.B, g *graph.Graph, p pattern.Pattern, hybrid bool) {
	s, err := pattern.Build(p)
	if err != nil {
		b.Fatal(err)
	}
	g.HubIndex() // build outside the timed region; it is shared and one-time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMiner(g, s)
		m.SetHybridKernels(hybrid)
		m.Run()
	}
}

func BenchmarkTriangleLJHybrid(b *testing.B)    { benchShape(b, quickLJ(), pattern.Triangle(), true) }
func BenchmarkTriangleLJMergeOnly(b *testing.B) { benchShape(b, quickLJ(), pattern.Triangle(), false) }
func BenchmarkTriangleORHybrid(b *testing.B)    { benchShape(b, quickOR(), pattern.Triangle(), true) }
func BenchmarkTriangleORMergeOnly(b *testing.B) { benchShape(b, quickOR(), pattern.Triangle(), false) }
func BenchmarkFourCliqueORHybrid(b *testing.B) {
	benchShape(b, quickOR(), pattern.FourClique(), true)
}
func BenchmarkFourCliqueORMergeOnly(b *testing.B) {
	benchShape(b, quickOR(), pattern.FourClique(), false)
}

// BenchmarkCountLJTriangleServe is one shogund count request's mining
// step: the lj analogue × tc through ParallelCountContext with one
// worker, as the daemon runs it. The graph's shared derived indexes are
// built once before timing, as a warm daemon cache has them.
func BenchmarkCountLJTriangleServe(b *testing.B) {
	g, err := datasets.Get("lj")
	if err != nil {
		b.Fatal(err)
	}
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		b.Fatal(err)
	}
	NewMiner(g, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParallelCountContext(context.Background(), g, s, 1); err != nil {
			b.Fatal(err)
		}
	}
}
