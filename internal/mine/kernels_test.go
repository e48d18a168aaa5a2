package mine

import (
	"fmt"
	"reflect"
	"testing"

	"shogun/internal/datasets"
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

// leafShapes names the shapes of s's counting leaf that the leaf-parent
// batch (countLeaves) treats differently. The bound of each final kernel
// input comes from a stored set's positional prefix, a neighbour set's
// lower split, or a search. The plan may read a stored base C_d of the
// parent position d, the sibling's N(v_d), and operands keyed on a
// position below d; it may fold several steps, alias a set (no steps),
// exclude Distinct positions, or sit right under the root (depth 2; its
// base is the parent's own N(v_0), so extend materializes it instead).
// tc and 4cl run the local-graph pass, not countLeaves, but their shapes
// still count here.
func leafShapes(s *pattern.Schedule) map[string]bool {
	d := s.Depth() - 2
	plan := &s.Plans[d+1]
	shapes := map[string]bool{
		"stored base at d": plan.Base.Kind == pattern.RefStored && plan.Base.Pos == d,
		"fold":             len(plan.Steps) > 1,
		"alias":            len(plan.Steps) == 0,
		"distinct":         len(plan.Distinct) > 0,
		"depth 2":          s.Depth() == 2,
		"N(v_d) operand":   false,
		"operand below d":  false,
		"bound: stored":    false,
		"bound: lower":     false,
		"bound: search":    false,
	}
	refs := []pattern.SetRef{plan.Base}
	for _, op := range plan.Steps {
		refs = append(refs, op.Ref)
	}
	for _, ref := range refs {
		switch {
		case ref.Kind == pattern.RefNeighbor && ref.Pos == d:
			shapes["N(v_d) operand"] = true
		case ref.Pos < d:
			shapes["operand below d"] = true
		}
	}
	bounds := map[int]bool{}
	for _, a := range plan.BoundBy {
		bounds[a] = true
	}
	if len(bounds) == 0 {
		return shapes
	}
	free := func(ref pattern.SetRef) {
		switch {
		case !bounds[ref.Pos]:
			shapes["bound: search"] = true
		case ref.Kind == pattern.RefStored:
			shapes["bound: stored"] = true
		default:
			shapes["bound: lower"] = true
		}
	}
	if n := len(plan.Steps); n <= 1 {
		free(plan.Base)
	} else {
		shapes["bound: search"] = true // the last step's left input is a fold result
	}
	if n := len(plan.Steps); n > 0 && !plan.Steps[n-1].Sub {
		free(plan.Steps[n-1].Ref)
	}
	return shapes
}

// leafTestPatterns reach every leafShapes shape between them, with and
// without induced semantics.
func leafTestPatterns() []pattern.Pattern {
	return []pattern.Pattern{
		pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle(),
		pattern.Diamond(), pattern.FourCycle(), pattern.House(), pattern.PathN(2),
	}
}

// TestHybridMatchesBaselineExactly is the central invariant of the
// hybrid kernel layer: switching kernels must not change any reported
// number — embeddings, per-depth task counts, intermediate-line
// accounting, or set-op element accounting. The counting leaf, batched
// per leaf parent, must match the materializing merge-only miner, and
// its free bounds must select exactly the kernels a binary search would.
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
	seen := map[string]bool{}
	for gname, g := range graphs {
		for _, p := range leafTestPatterns() {
			for _, induced := range []bool{false, true} {
				s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
				if err != nil {
					t.Fatal(err)
				}
				for shape, ok := range leafShapes(s) {
					seen[shape] = seen[shape] || ok
				}
				m := NewMiner(g, s)
				hyb := m.Run()
				if diff := sameResult(hyb, runBaseline(g, s)); diff != "" {
					t.Errorf("%s/%s: hybrid vs baseline: %s", gname, s.Name, diff)
				}
				if len(s.Plans[s.Depth()-1].BoundBy) == 0 {
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
	for shape, ok := range seen {
		if !ok {
			t.Errorf("no test pattern reaches leaf shape %q", shape)
		}
	}
}

// TestCountingLeafDifferential runs every catalog pattern, edge- and
// vertex-induced, on skewed R-MAT graphs: the counting leaf's Result must
// equal the merge-only miner's, and its count the visitor path's. The
// "tiny-hubs" graph's hub index was built under a two-hub budget, so
// long non-hub siblings probe the parent's bitset and leaf parents with
// neither hub nor alias bits fill the scratch bitset.
func TestCountingLeafDifferential(t *testing.T) {
	tiny := gen.RMAT(1<<9, 3000, 0.6, 0.15, 0.15, 31)
	n := tiny.NumVertices()
	hub := tiny.HubIndexWithBudget(int64(4*n + 2*(8*setops.BitsetWords(n)+4)))
	if hub == nil || hub.NumHubs() != 2 {
		t.Fatal("the tiny budget did not build a two-hub index")
	}
	longNonHubs := 0
	for v := 0; v < n; v++ {
		if tiny.Degree(graph.VertexID(v)) >= graph.MinHubDegree && !hub.IsHub(graph.VertexID(v)) {
			longNonHubs++
		}
	}
	if longNonHubs == 0 {
		t.Fatal("tiny-hubs has no long non-hub vertex")
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"hubby", gen.RMAT(1<<9, 2500, 0.62, 0.14, 0.14, 42)},
		{"tiny-hubs", tiny},
	}
	for _, c := range graphs {
		for _, name := range []string{"tc", "tt", "4cl", "5cl", "dia", "4cyc", "house"} {
			p, err := pattern.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, induced := range []bool{false, true} {
				s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
				if err != nil {
					t.Fatal(err)
				}
				hyb := NewMiner(c.g, s).Run()
				if diff := sameResult(hyb, runBaseline(c.g, s)); diff != "" {
					t.Errorf("%s/%s: counting leaf vs merge-only: %s", c.name, s.Name, diff)
				}
				var visits int64
				v := NewMiner(c.g, s)
				v.SetVisitor(func([]graph.VertexID) { visits++ })
				v.Run()
				if visits != hyb.Embeddings {
					t.Errorf("%s/%s: counting leaf %d embeddings, visitor %d", c.name, s.Name, hyb.Embeddings, visits)
				}
			}
		}
	}
}

// TestLocalGraphMatchesListPath runs every catalog pattern on the six
// analogues. Exactly the clique-shaped schedules (tc and 4cl, either
// semantics) take the local-graph pass, and each of those must report
// the merge-only miner's whole Result. The other schedules run the list
// path the other tests compare; their merge-only runs on the analogues
// take minutes, so they are not repeated here. A vertex-induced clique
// schedule with the edge-induced one's plans is mined once.
func TestLocalGraphMatchesListPath(t *testing.T) {
	for _, name := range datasets.Names() {
		g, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, pname := range []string{"tc", "tt", "4cl", "5cl", "dia", "4cyc", "house"} {
			p, err := pattern.ByName(pname)
			if err != nil {
				t.Fatal(err)
			}
			var mined *pattern.Schedule
			for _, induced := range []bool{false, true} {
				s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
				if err != nil {
					t.Fatal(err)
				}
				m := NewMiner(g, s)
				if clique := pname == "tc" || pname == "4cl"; (m.kern.clique != 0) != clique {
					t.Fatalf("%s: local-graph pass selected %v, want %v", s.Name, m.kern.clique != 0, clique)
				}
				if m.kern.clique == 0 || mined != nil && reflect.DeepEqual(mined.Plans, s.Plans) {
					continue
				}
				mined = s
				if diff := sameResult(m.Run(), runBaseline(g, s)); diff != "" {
					t.Errorf("%s/%s: local graph vs merge-only: %s", name, s.Name, diff)
				}
			}
		}
	}
}

// FuzzLocalGraphCliques mines fuzzer-chosen graphs for tc and 4cl with
// the local-graph pass and compares the whole Result with the merge-only
// miner's. Like FuzzMinerLeafBounds it may add a hub adjacent to every
// vertex, so the pass probes hub bits; the row bound is fuzzed down to
// 0..15, so 4cl roots with more lower neighbours take the list path.
func FuzzLocalGraphCliques(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint8(0), uint8(0), []byte{0, 1, 0, 2, 1, 2, 2, 3, 3, 0, 1, 3})
	f.Add(uint8(120), uint8(1), uint8(100), uint8(3), []byte{1, 2, 2, 3, 3, 1, 1, 4, 4, 2, 4, 3, 110, 111, 111, 112, 112, 110})
	f.Add(uint8(200), uint8(0), uint8(150), uint8(2), []byte{7, 8, 8, 9, 9, 7, 160, 170, 170, 180, 180, 160, 190, 7})
	f.Add(uint8(90), uint8(3), uint8(0), uint8(1), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 2, 1, 3, 1, 4, 2, 3, 2, 4, 3, 4, 4, 5, 5, 0})
	f.Fuzz(func(t *testing.T, n, pat, hub, bound uint8, raw []byte) {
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
		p := pattern.Triangle()
		if pat%2 == 1 {
			p = pattern.FourClique()
		}
		s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: pat/2%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(g, s)
		if m.kern.clique == 0 {
			t.Fatalf("%s: local-graph pass not selected", s.Name)
		}
		m.kern.rowBound = int(bound % 16)
		if diff := sameResult(m.Run(), runBaseline(g, s)); diff != "" {
			t.Fatalf("%s: local graph vs merge-only: %s", s.Name, diff)
		}
	})
}

// TestCountingLeafPinned pins Result and KernelStats of the counting
// miner on two served analogues. Result is as recorded from the per-task
// counting leaf the leaf-parent batch replaced. KernelStats is as
// recorded from the probe leaf: one BitmapOps per leaf task whose two
// bounded inputs are both non-empty, plus the dispatcher's choices for
// the candidate sets above the leaf. The local-graph pass counts tc's
// probes the same way, and one BitmapOps per position-2 task of 4cl,
// whose row AND counts that task's leaves. Any moved number fails.
func TestCountingLeafPinned(t *testing.T) {
	cases := []struct {
		dataset, pattern string
		want             Result
		stats            setops.Stats
	}{
		{"lj", "tc", Result{Embeddings: 230351, TasksPerDepth: []int64{32768, 154179, 230351}, IntermediateLinesPerDepth: []int64{0, 707913, 0}, SetOpElements: 33433244},
			setops.Stats{BitmapOps: 130266}},
		{"lj", "4cl", Result{Embeddings: 509953, TasksPerDepth: []int64{32768, 154179, 230351, 509953}, IntermediateLinesPerDepth: []int64{0, 707913, 450182, 0}, SetOpElements: 159427264},
			setops.Stats{BitmapOps: 230351}},
		{"yo", "tt_e", Result{Embeddings: 40200738, TasksPerDepth: []int64{16384, 75246, 205911, 40200738}, IntermediateLinesPerDepth: []int64{0, 404363, 2639844, 0}, SetOpElements: 11608760},
			setops.Stats{MergeOps: 38348, GallopOps: 894, BitmapOps: 36004}},
		{"yo", "dia", Result{Embeddings: 3002609, TasksPerDepth: []int64{16384, 37623, 205911, 3002609}, IntermediateLinesPerDepth: []int64{0, 122976, 491651, 0}, SetOpElements: 5804380},
			setops.Stats{MergeOps: 19174, GallopOps: 447, BitmapOps: 18002}},
	}
	for _, c := range cases {
		g, err := datasets.Get(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pattern.ByName(c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		s, err := pattern.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMiner(g, s)
		if diff := sameResult(m.Run(), &c.want); diff != "" {
			t.Errorf("%s/%s: %s", c.dataset, c.pattern, diff)
		}
		if got := m.KernelStats(); got != c.stats {
			t.Errorf("%s/%s: KernelStats %+v, pinned %+v", c.dataset, c.pattern, got, c.stats)
		}
	}
}

// FuzzMinerLeafBounds mines fuzzer-chosen graphs (optionally with one
// hub adjacent to every vertex, so hub bitsets come into play) for each
// test pattern: the hybrid miner, whose counting leaf runs in leaf-parent
// batches, must match the merge-only baseline on every Result statistic
// and the searched-bound reference on KernelStats.
func FuzzMinerLeafBounds(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint8(0), []byte{0, 1, 0, 2, 1, 2, 2, 3, 3, 0, 1, 3})
	f.Add(uint8(90), uint8(5), uint8(1), []byte{1, 2, 2, 3, 3, 1, 10, 11, 11, 12, 12, 10, 40, 41})
	f.Add(uint8(200), uint8(9), uint8(200), []byte{7, 8, 8, 9, 9, 7, 7, 10, 10, 8, 100, 101, 101, 7})
	// The probe leaf's shapes: P the stored base under a hub sibling
	// (dia_v; tc's local-graph pass probes a hub u the same way), P the
	// last operand (house_v), P the hoisted fold
	// (tt_v), and P filled into the scratch bitset with no hub at all.
	f.Add(uint8(100), uint8(0), uint8(3), []byte{1, 2, 2, 4, 4, 1, 5, 6, 6, 7, 7, 5, 5, 8, 8, 6, 90, 91})
	f.Add(uint8(100), uint8(7), uint8(3), []byte{1, 2, 2, 4, 4, 1, 1, 5, 5, 2, 5, 6, 6, 7, 7, 5, 60, 61})
	f.Add(uint8(120), uint8(11), uint8(9), []byte{1, 2, 2, 3, 3, 4, 4, 1, 1, 3, 10, 11, 11, 12, 12, 13, 13, 10, 40, 41})
	f.Add(uint8(140), uint8(5), uint8(139), []byte{1, 2, 2, 3, 3, 1, 3, 4, 4, 5, 5, 3, 20, 21, 21, 22, 22, 20, 22, 23})
	f.Add(uint8(30), uint8(2), uint8(0), []byte{0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 3, 4, 4, 5, 5, 3, 2, 4, 2, 5})
	patterns := leafTestPatterns()
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
