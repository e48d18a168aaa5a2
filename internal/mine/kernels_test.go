package mine

import (
	"fmt"
	"reflect"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/setops"
)

// runBaseline mines with the hybrid kernel layer disabled, reproducing
// the seed merge/gallop-only miner.
func runBaseline(g *graph.Graph, s *pattern.Schedule) *Result {
	m := NewMiner(g, s)
	m.SetHybridKernels(false)
	return m.Run()
}

// runSearched mines with every leaf bound found by binary search: the
// reference that the free positional and lower-split bounds must
// reproduce, kernel selections included.
func runSearched(g *graph.Graph, s *pattern.Schedule) (*Result, setops.Stats) {
	m := NewMiner(g, s)
	m.kern.searchBounds = true
	return m.Run(), m.KernelStats()
}

// sameResult reports the first statistic on which a and b differ, or "".
func sameResult(a, b *Result) string {
	switch {
	case a.Embeddings != b.Embeddings:
		return fmt.Sprintf("embeddings %d != %d", a.Embeddings, b.Embeddings)
	case !reflect.DeepEqual(a.TasksPerDepth, b.TasksPerDepth):
		return fmt.Sprintf("TasksPerDepth %v != %v", a.TasksPerDepth, b.TasksPerDepth)
	case !reflect.DeepEqual(a.IntermediateLinesPerDepth, b.IntermediateLinesPerDepth):
		return fmt.Sprintf("IntermediateLinesPerDepth %v != %v", a.IntermediateLinesPerDepth, b.IntermediateLinesPerDepth)
	case a.SetOpElements != b.SetOpElements:
		return fmt.Sprintf("SetOpElements %d != %d", a.SetOpElements, b.SetOpElements)
	}
	return ""
}

// leafBoundShapes reports which bound sources the counting leaf of s can
// use: the positional prefix of a stored base, the lower split of a
// neighbour operand, and the setops.Bound fallback.
func leafBoundShapes(s *pattern.Schedule) (stored, neighbor, fallback bool) {
	plan := &s.Plans[s.Depth()-1]
	bounds := map[int]bool{}
	for _, a := range plan.BoundBy {
		bounds[a] = true
	}
	if len(bounds) == 0 {
		return false, false, false
	}
	free := func(ref pattern.SetRef) {
		switch {
		case !bounds[ref.Pos]:
			fallback = true
		case ref.Kind == pattern.RefStored:
			stored = true
		default:
			neighbor = true
		}
	}
	if n := len(plan.Steps); n <= 1 {
		free(plan.Base)
	} else {
		fallback = true // the last step's left input is a fold result
	}
	if n := len(plan.Steps); n > 0 && !plan.Steps[n-1].Sub {
		free(plan.Steps[n-1].Ref)
	}
	return stored, neighbor, fallback
}

// TestHybridMatchesBaselineExactly is the central invariant of the
// hybrid kernel layer: switching kernels must not change any reported
// number — embeddings, per-depth task counts, intermediate-line
// accounting, or set-op element accounting. The counting leaf's free
// bounds must also select exactly the kernels a binary search would.
func TestHybridMatchesBaselineExactly(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat-skewed": gen.RMAT(1<<10, 9000, 0.45, 0.22, 0.22, 106),
		"rmat-hubby":  gen.RMAT(1<<9, 5000, 0.62, 0.14, 0.14, 42),
		"rmat-spiky":  gen.RMAT(1<<11, 6000, 0.6, 0.15, 0.15, 105),
		"plc":         gen.PowerLawCluster(600, 6, 0.6, 17),
		"near-reg":    gen.NearRegular(600, 9, 5),
	}
	for _, name := range []string{"rmat-skewed", "rmat-hubby", "rmat-spiky"} {
		if graphs[name].HubIndex() == nil {
			t.Fatalf("%s has no hubs", name)
		}
	}
	patterns := []pattern.Pattern{
		pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle(),
		pattern.Diamond(), pattern.FourCycle(), pattern.House(),
	}
	var stored, neighbor, fallback bool
	for gname, g := range graphs {
		for _, p := range patterns {
			for _, induced := range []bool{false, true} {
				s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
				if err != nil {
					t.Fatal(err)
				}
				st, nb, fb := leafBoundShapes(s)
				stored, neighbor, fallback = stored || st, neighbor || nb, fallback || fb
				m := NewMiner(g, s)
				hyb := m.Run()
				if diff := sameResult(hyb, runBaseline(g, s)); diff != "" {
					t.Errorf("%s/%s: hybrid vs baseline: %s", gname, s.Name, diff)
				}
				if !st && !nb && !fb {
					continue // unbounded leaf: nothing to search
				}
				ref, refStats := runSearched(g, s)
				if diff := sameResult(hyb, ref); diff != "" {
					t.Errorf("%s/%s: free vs searched bounds: %s", gname, s.Name, diff)
				}
				if got := m.KernelStats(); got != refStats {
					t.Errorf("%s/%s: KernelStats %+v, searched bounds %+v", gname, s.Name, got, refStats)
				}
			}
		}
	}
	if !stored || !neighbor || !fallback {
		t.Fatalf("patterns miss a leaf bound shape: stored=%v neighbor=%v fallback=%v", stored, neighbor, fallback)
	}
}

// FuzzMinerLeafBounds mines fuzzer-chosen graphs (optionally with one
// hub adjacent to every vertex, so hub bitsets come into play) for each
// test pattern: the hybrid miner must match the merge-only baseline on
// every Result statistic and the searched-bound reference on KernelStats.
func FuzzMinerLeafBounds(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint8(0), []byte{0, 1, 0, 2, 1, 2, 2, 3, 3, 0, 1, 3})
	f.Add(uint8(90), uint8(5), uint8(1), []byte{1, 2, 2, 3, 3, 1, 10, 11, 11, 12, 12, 10, 40, 41})
	f.Add(uint8(200), uint8(9), uint8(200), []byte{7, 8, 8, 9, 9, 7, 7, 10, 10, 8, 100, 101, 101, 7})
	patterns := []pattern.Pattern{
		pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle(),
		pattern.Diamond(), pattern.FourCycle(), pattern.House(),
	}
	f.Fuzz(func(t *testing.T, n, pat, hub uint8, raw []byte) {
		if n < 2 {
			n = 2
		}
		var edges []graph.Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, graph.Edge{U: graph.VertexID(raw[i] % n), V: graph.VertexID(raw[i+1] % n)})
		}
		if hub != 0 {
			h := graph.VertexID(hub % n)
			for v := 0; v < int(n); v++ {
				edges = append(edges, graph.Edge{U: h, V: graph.VertexID(v)})
			}
		}
		g := graph.MustNew(int(n), edges)
		p := patterns[int(pat/2)%len(patterns)]
		s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: pat%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(g, s)
		hyb := m.Run()
		if diff := sameResult(hyb, runBaseline(g, s)); diff != "" {
			t.Fatalf("%s: hybrid vs baseline: %s", s.Name, diff)
		}
		if _, refStats := runSearched(g, s); m.KernelStats() != refStats {
			t.Fatalf("%s: KernelStats %+v, searched bounds %+v", s.Name, m.KernelStats(), refStats)
		}
	})
}

// TestHybridUsesBitmapKernels pins that the dispatcher actually selects
// bitmap kernels on a hub-heavy graph (otherwise the layer is dead code).
func TestHybridUsesBitmapKernels(t *testing.T) {
	g := gen.RMAT(1<<11, 24000, 0.55, 0.17, 0.17, 105)
	if g.HubIndex() == nil {
		t.Fatal("skewed R-MAT analogue built no hub index")
	}
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMiner(g, s)
	m.Run()
	if st := m.KernelStats(); st.BitmapOps == 0 {
		t.Fatalf("no bitmap kernels selected on a hubby graph: %+v", st)
	}
	// Disabled miner must select none.
	m2 := NewMiner(g, s)
	m2.SetHybridKernels(false)
	m2.Run()
	if st := m2.KernelStats(); st.BitmapOps != 0 {
		t.Fatalf("baseline miner used bitmap kernels: %+v", st)
	}
}

// TestHybridVisitorPathAgrees drives the visitor (materializing) path
// with hybrid kernels on a graph with hubs.
func TestHybridVisitorPathAgrees(t *testing.T) {
	g := gen.RMAT(512, 6000, 0.6, 0.15, 0.15, 9)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	var visits int64
	m := NewMiner(g, s)
	m.SetVisitor(func(match []graph.VertexID) {
		visits++
		for i := 0; i < len(match); i++ {
			for j := i + 1; j < len(match); j++ {
				if match[i] == match[j] {
					t.Fatalf("non-injective embedding %v", match)
				}
			}
		}
	})
	res := m.Run()
	if visits != res.Embeddings {
		t.Fatalf("visitor saw %d embeddings, result says %d", visits, res.Embeddings)
	}
	if want := runBaseline(g, s).Embeddings; res.Embeddings != want {
		t.Fatalf("visitor-path count %d != baseline %d", res.Embeddings, want)
	}
}

// TestGuidedSchedulingMatchesSerial sweeps worker counts (including ones
// that don't divide the vertex count) over the guided self-scheduling
// loop; counts and statistics must be exact for each.
func TestGuidedSchedulingMatchesSerial(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 13)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	serial := NewMiner(g, s).Run()
	for _, workers := range []int{2, 3, 5, 8, 16, 1 << 10} {
		par := ParallelCount(g, s, workers)
		if par.Embeddings != serial.Embeddings {
			t.Errorf("workers=%d: %d != %d embeddings", workers, par.Embeddings, serial.Embeddings)
		}
		if !reflect.DeepEqual(par.TasksPerDepth, serial.TasksPerDepth) {
			t.Errorf("workers=%d: TasksPerDepth %v != %v", workers, par.TasksPerDepth, serial.TasksPerDepth)
		}
		if par.SetOpElements != serial.SetOpElements {
			t.Errorf("workers=%d: SetOpElements %d != %d", workers, par.SetOpElements, serial.SetOpElements)
		}
	}
}

func TestGuidedChunkBounds(t *testing.T) {
	cases := []struct {
		remaining, workers, want int64
	}{
		{10000, 8, maxRootChunk},                        // capped early
		{100, 8, minRootChunk},                          // floor near the tail
		{maxRootChunk * guidedDivisor, 1, maxRootChunk}, // exactly at the cap
		{1, 64, minRootChunk},                           // never zero
	}
	for _, c := range cases {
		if got := guidedChunk(c.remaining, c.workers); got != c.want {
			t.Errorf("guidedChunk(%d,%d) = %d, want %d", c.remaining, c.workers, got, c.want)
		}
	}
	// Chunks must decrease (weakly) as the queue drains.
	prev := int64(maxRootChunk)
	for remaining := int64(4096); remaining > 0; remaining -= 64 {
		c := guidedChunk(remaining, 8)
		if c > prev {
			t.Fatalf("chunk grew from %d to %d at remaining=%d", prev, c, remaining)
		}
		prev = c
	}
}
