package core

import (
	"slices"
	"strings"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/pe"
	"shogun/internal/policy"
	"shogun/internal/task"
)

func newTree(t *testing.T, g *graph.Graph, s *pattern.Schedule, cfg TreeConfig, roots policy.RootSource) (*Tree, *task.Workload, *policy.Tokens) {
	t.Helper()
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	tokens := policy.NewTokens(0, 1, s.Depth(), cfg.EntriesPerBunch)
	if roots == nil {
		roots = policy.AllRoots(g)
	}
	return NewTree(w, tokens, roots, cfg), w, tokens
}

// drive runs the tree to completion with up to width tasks in flight,
// completing in the given order.
func drive(t *testing.T, tr *Tree, w *task.Workload, width int, order string) int64 {
	t.Helper()
	type running struct {
		n    *task.Node
		slot int
	}
	var inflight []running
	var total int64
	for steps := 0; ; steps++ {
		if steps > 50_000_000 {
			t.Fatal("tree did not terminate")
		}
		for len(inflight) < width {
			n, slot, ok := tr.Next(0)
			if !ok {
				break
			}
			w.Execute(n, slot)
			inflight = append(inflight, running{n, slot})
		}
		if len(inflight) == 0 {
			if tr.Pending() {
				t.Fatalf("tree stalled with pending work:\n%s", tr.DebugString())
			}
			return total
		}
		idx := 0
		if order == "lifo" {
			idx = len(inflight) - 1
		}
		r := inflight[idx]
		inflight = append(inflight[:idx], inflight[idx+1:]...)
		res := tr.OnComplete(r.n, 0)
		total += res.Embeddings
	}
}

func TestTreeCountsAllPatterns(t *testing.T) {
	g := gen.RMAT(128, 700, 0.6, 0.15, 0.15, 11)
	for _, p := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.FiveClique(), pattern.TailedTriangle(), pattern.Diamond(), pattern.FourCycle()} {
		for _, induced := range []bool{false, true} {
			s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
			if err != nil {
				t.Fatal(err)
			}
			want := mine.Count(g, s)
			for _, order := range []string{"fifo", "lifo"} {
				tr, w, tokens := newTree(t, g, s, DefaultTreeConfig(8), nil)
				got := drive(t, tr, w, 8, order)
				if got != want {
					t.Errorf("%s/%s: counted %d, want %d", s.Name, order, got, want)
				}
				for d := 1; d < s.Depth(); d++ {
					if tokens.InUse(d) != 0 {
						t.Errorf("%s: tokens leaked at depth %d", s.Name, d)
					}
				}
			}
		}
	}
}

func TestTreeEntriesMatchTable3(t *testing.T) {
	cfg := DefaultTreeConfig(8)
	if got := cfg.TotalEntries(7); got != 178 {
		t.Fatalf("entries at depth 7 = %d, want 178 (Table 3)", got)
	}
}

func TestSiblingPreference(t *testing.T) {
	// A star-of-cliques graph gives the root many children; after one
	// child of a bunch is selected, the next selections must come from
	// the same bunch while it has Ready entries.
	g := gen.Clique(20)
	s, _ := pattern.Build(pattern.FourClique())
	tr, w, _ := newTree(t, g, s, DefaultTreeConfig(8), &policy.SliceRoots{Vertices: []graph.VertexID{19}})

	root, slot, ok := tr.Next(0)
	if !ok {
		t.Fatal("no root task")
	}
	w.Execute(root, slot)
	tr.OnComplete(root, 0)

	// The spawned bunch holds 8 siblings; selecting 8 tasks must yield
	// 8 siblings (same parent), counted by the scheduler stats.
	for i := 0; i < 8; i++ {
		n, sl, ok := tr.Next(0)
		if !ok {
			t.Fatalf("selection %d failed", i)
		}
		if n.Depth != 1 || n.Parent != root {
			t.Fatalf("selection %d is not a sibling: depth %d", i, n.Depth)
		}
		w.Execute(n, sl)
	}
	if tr.SiblingRuns < 7 {
		t.Fatalf("sibling runs = %d, want >= 7", tr.SiblingRuns)
	}
}

func TestOutOfOrderAcrossDepths(t *testing.T) {
	// After a sibling completes and spawns children, the tree must be
	// able to co-schedule different-depth tasks (the barrier-free core
	// claim, Fig. 2(e)).
	g := gen.Clique(20)
	s, _ := pattern.Build(pattern.FourClique())
	tr, w, _ := newTree(t, g, s, DefaultTreeConfig(4), &policy.SliceRoots{Vertices: []graph.VertexID{19}})

	root, slot, _ := tr.Next(0)
	w.Execute(root, slot)
	tr.OnComplete(root, 0)

	// Complete the two lowest-vertex siblings; the second one (vertex 1)
	// spawns a depth-2 bunch (vertex 0's bounded set is empty and it
	// extends instead).
	n1, s1, _ := tr.Next(0)
	n2, s2, _ := tr.Next(0)
	w.Execute(n1, s1)
	w.Execute(n2, s2)
	tr.OnComplete(n1, 0)
	tr.OnComplete(n2, 0)
	depths := map[int]int{}
	for i := 0; i < 8; i++ {
		n, sl, ok := tr.Next(0)
		if !ok {
			break
		}
		depths[n.Depth]++
		w.Execute(n, sl)
	}
	// Depth-1 siblings and a depth-2 task must be co-scheduled: no
	// inter-depth barrier.
	if depths[1] == 0 || depths[2] == 0 {
		t.Fatalf("no cross-depth co-scheduling: %v", depths)
	}
	if tr.NonSiblingRuns == 0 {
		t.Fatal("no non-sibling selections recorded")
	}
}

func TestConservativeModeRestrictsToSiblings(t *testing.T) {
	g := gen.Clique(20)
	s, _ := pattern.Build(pattern.FourClique())
	tr, w, _ := newTree(t, g, s, DefaultTreeConfig(4), &policy.SliceRoots{Vertices: []graph.VertexID{19, 18}})

	root, slot, _ := tr.Next(0)
	w.Execute(root, slot)
	tr.OnComplete(root, 0)
	n1, s1, _ := tr.Next(0)
	n2, s2, _ := tr.Next(0)
	w.Execute(n1, s1)
	w.Execute(n2, s2)
	tr.OnComplete(n1, 0) // spawns a depth-2 bunch

	tr.SetConservative(true)
	// With n2 executing (same bunch as last selection's siblings), only
	// bunch-mates of the last selected bunch may be scheduled. The last
	// bunch is now the depth-1 bunch; its Ready members qualify, but
	// the depth-2 bunch must not be co-scheduled.
	for i := 0; i < 10; i++ {
		n, sl, ok := tr.Next(0)
		if !ok {
			break
		}
		if n.Depth == 2 {
			t.Fatal("conservative mode co-scheduled a non-sibling depth-2 task")
		}
		w.Execute(n, sl)
	}
}

func TestCarveSplitAndAdopt(t *testing.T) {
	g := gen.Clique(24)
	s, _ := pattern.Build(pattern.Triangle())
	roots := &policy.SliceRoots{Vertices: []graph.VertexID{23}}
	tr, w, _ := newTree(t, g, s, DefaultTreeConfig(8), roots)

	root, slot, _ := tr.Next(0)
	w.Execute(root, slot)
	tr.OnComplete(root, 0)

	sp := tr.SplittableRoot()
	if sp == nil {
		t.Fatal("no splittable root despite a wide unexplored range")
	}
	before := sp.SpawnLimit
	lo, hi, ok := tr.CarveSplit(sp, 2)
	if !ok {
		t.Fatal("carve failed")
	}
	if hi != before || lo <= sp.NextCand {
		t.Fatalf("carve range [%d,%d) vs limit %d cursor %d", lo, hi, before, sp.NextCand)
	}
	if sp.SpawnLimit != lo {
		t.Fatalf("victim's spawn limit = %d, want %d", sp.SpawnLimit, lo)
	}

	// Adopt the carved range on a second tree (fresh PE).
	tr2, w2, tok2 := newTree(t, g, s, DefaultTreeConfig(8), &policy.SliceRoots{})
	slot2, _ := tok2.TryAcquire(1)
	if !tr2.AdoptSplit(sp.Vertex, w.CopyCand(sp.Cand), lo, hi, slot2) {
		t.Fatal("adopt failed")
	}

	// The adopted root is an ordinary spawn window: carve it again onto
	// a third tree.
	sp2 := tr2.SplittableRoot()
	if sp2 == nil || sp2.NextCand <= lo || sp2.SpawnLimit != hi {
		t.Fatalf("adopted root not splittable within [%d,%d): %+v", lo, hi, sp2)
	}
	lo2, hi2, ok := tr2.CarveSplit(sp2, 1)
	if !ok || hi2 != hi || sp2.SpawnLimit != lo2 {
		t.Fatalf("second carve [%d,%d) ok=%t, adopted limit now %d", lo2, hi2, ok, sp2.SpawnLimit)
	}
	tr3, w3, tok3 := newTree(t, g, s, DefaultTreeConfig(8), &policy.SliceRoots{})
	slot3, _ := tok3.TryAcquire(1)
	if !tr3.AdoptSplit(sp2.Vertex, w2.CopyCand(sp2.Cand), lo2, hi2, slot3) {
		t.Fatal("second adopt failed")
	}
	counts := []int64{
		drive(t, tr, w, 8, "fifo"),
		drive(t, tr2, w2, 8, "fifo"),
		drive(t, tr3, w3, 8, "fifo"),
	}

	// Together the three parts must count the whole tree.
	wFull := task.NewWorkload(g, s, task.NewCandPool(g))
	full := NewTree(wFull, policy.NewTokens(0, 1, s.Depth(), 8), &policy.SliceRoots{Vertices: []graph.VertexID{23}}, DefaultTreeConfig(8))
	want := drive(t, full, wFull, 8, "fifo")
	if counts[0]+counts[1]+counts[2] != want {
		t.Fatalf("split parts %v do not sum to the whole %d", counts, want)
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("degenerate split: part %d of %v is empty", i, counts)
		}
	}
}

func TestMergingTwoTrees(t *testing.T) {
	g := gen.Clique(12)
	s, _ := pattern.Build(pattern.Triangle())
	cfg := DefaultTreeConfig(8)
	cfg.MaxTrees = 2
	tr, w, _ := newTree(t, g, s, cfg, nil)
	tr.SetMergeAllowed(true)

	// Pull tasks until two distinct tree ids are in flight.
	var seen []int
	for i := 0; i < 4; i++ {
		n, slot, ok := tr.Next(0)
		if !ok {
			break
		}
		w.Execute(n, slot)
		found := false
		for _, id := range seen {
			if id == n.TreeID {
				found = true
			}
		}
		if !found {
			seen = append(seen, n.TreeID)
		}
		tr.OnComplete(n, 0)
	}
	if len(seen) < 2 {
		t.Fatalf("merging did not engage: tree ids %v", seen)
	}
	if tr.MergeFeeds == 0 {
		t.Fatal("merge feeds not counted")
	}
}

func TestQuiesceOnConservativeWithTwoTrees(t *testing.T) {
	g := gen.Clique(16)
	s, _ := pattern.Build(pattern.FourClique())
	cfg := DefaultTreeConfig(4)
	cfg.MaxTrees = 2
	tr, w, _ := newTree(t, g, s, cfg, &policy.SliceRoots{Vertices: []graph.VertexID{15, 14}})
	tr.SetMergeAllowed(true)

	// Start both trees: with merging allowed, the first two selections
	// are the two roots (the first root's bunch has no other Ready
	// entry, so the second selection feeds and picks root 2).
	a, sa, _ := tr.Next(0)
	b, sb, ok := tr.Next(0)
	if !ok || a.Depth != 0 || b.Depth != 0 || a.TreeID == b.TreeID {
		t.Fatalf("expected two distinct roots, got %+v %+v ok=%v", a, b, ok)
	}
	w.Execute(a, sa)
	w.Execute(b, sb)
	tr.OnComplete(a, 0)
	tr.OnComplete(b, 0)
	if tr.activeTrees() != 2 {
		t.Skipf("only %d active trees; merging path not hit", tr.activeTrees())
	}
	tr.SetConservative(true)
	quiesced := 0
	for _, ts := range tr.trees {
		if ts.quiesced {
			quiesced++
		}
	}
	if quiesced != 1 {
		t.Fatalf("quiesced trees = %d, want 1", quiesced)
	}
	// The run must still complete correctly: the live tree finishes,
	// wakes the quiesced one, and the total matches the software miner
	// over the same two roots.
	total := drive(t, tr, w, 4, "fifo")
	m := mine.NewMiner(g, s)
	m.RunRoot(15)
	m.RunRoot(14)
	if want := m.Result().Embeddings; total != want {
		t.Fatalf("after quiesce/wake counted %d, want %d", total, want)
	}
}

func TestBunchCapacityDefersSpawns(t *testing.T) {
	// With 1 bunch per depth, concurrent spawners must defer and later
	// complete via recycled bunches — counts stay exact.
	g := gen.RMAT(96, 500, 0.6, 0.15, 0.15, 3)
	s, _ := pattern.Build(pattern.FourClique())
	want := mine.Count(g, s)
	cfg := TreeConfig{BunchesPerDepth: 1, EntriesPerBunch: 4, Depth0Bunches: 1, Depth1Bunches: 1, MaxTrees: 1}
	tr, w, _ := newTree(t, g, s, cfg, nil)
	got := drive(t, tr, w, 4, "lifo")
	if got != want {
		t.Fatalf("constrained tree counted %d, want %d", got, want)
	}
	if tr.DeferredSpawns == 0 {
		t.Log("warning: no deferred spawns exercised (workload too small?)")
	}
}

var _ pe.Policy = (*Tree)(nil)

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{
		Ready: "Ready", Executing: "Executing", Resting: "Resting", Quiesced: "Quiesced",
	} {
		if s.String() != want {
			t.Errorf("State(%d) = %q", int(s), s.String())
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state unprintable")
	}
}

func TestTreeGeometry(t *testing.T) {
	cfg := TreeConfig{BunchesPerDepth: 3, EntriesPerBunch: 4, Depth0Bunches: 1, Depth1Bunches: 2}
	// depth 4: 1*1 + 2*4 + 2 deeper depths * 3 bunches * 4 entries.
	if got := cfg.TotalEntries(4); got != 1+8+24 {
		t.Fatalf("TotalEntries(4) = %d", got)
	}
	if got := cfg.TotalEntries(1); got != 1 {
		t.Fatalf("TotalEntries(1) = %d", got)
	}
}

func TestDebugStringShowsOccupancy(t *testing.T) {
	g := gen.Clique(12)
	s, _ := pattern.Build(pattern.Triangle())
	tr, w, _ := newTree(t, g, s, DefaultTreeConfig(4), &policy.SliceRoots{Vertices: []graph.VertexID{11}})
	root, slot, _ := tr.Next(0)
	w.Execute(root, slot)
	tr.OnComplete(root, 0)
	out := tr.DebugString()
	if out == "" || !strings.Contains(out, "depth 1") {
		t.Fatalf("DebugString = %q", out)
	}
}

// gatedRoots hands out vertex v once per grant.
type gatedRoots struct {
	v     graph.VertexID
	grant int
}

func (r *gatedRoots) NextRoot() (graph.VertexID, bool) {
	if r.grant == 0 {
		return 0, false
	}
	r.grant--
	return r.v, true
}

// TestDeferredSpawnFIFOZeroAlloc pins the deferred-spawn queue: a parent
// that finds its child depth's bunches full waits, parents are served in
// arrival order, and popping reuses the queue's array, so a warm tree
// runs a whole search tree with deferred spawns without allocating.
// Each run explores 4-cliques under the top vertex of a 24-clique, whose
// 23 depth-1 parents compete for the 4 depth-2 bunches.
func TestDeferredSpawnFIFOZeroAlloc(t *testing.T) {
	g := gen.Clique(24)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	roots := &gatedRoots{v: 23}
	tr, w, _ := newTree(t, g, s, DefaultTreeConfig(8), roots)
	var inflight [8]*task.Node
	var slots [8]int
	reads := make([]task.Read, 0, 4)
	var model [][]*task.Node // queue copies for the FIFO check (nil: skip)
	runTree := func() (embeddings int64) {
		roots.grant = 1
		for {
			k := 0
			for k < len(inflight) && inflight[k] != nil {
				k++
			}
			for ; k < len(inflight); k++ {
				n, slot, ok := tr.Next(0)
				if !ok {
					break
				}
				w.ExecuteReuse(n, slot, reads[:0])
				inflight[k], slots[k] = n, slot
			}
			n := inflight[0]
			if n == nil {
				return embeddings
			}
			copy(inflight[:], inflight[1:])
			inflight[len(inflight)-1] = nil
			if model != nil {
				for d := range model {
					model[d] = append(model[d][:0], tr.pendingSpawn[d]...)
				}
			}
			embeddings += tr.OnComplete(n, 0).Embeddings
			for d := range model {
				// FIFO: pops take the head, a push appends the completed node.
				old, q := model[d], tr.pendingSpawn[d]
				if len(q) > len(old) && q[len(q)-1] == n {
					q = q[:len(q)-1]
				}
				if len(q) > len(old) || !slices.Equal(q, old[len(old)-len(q):]) {
					t.Fatalf("depth %d queue %v is not the FIFO successor of %v", d, tr.pendingSpawn[d], old)
				}
			}
		}
	}
	model = make([][]*task.Node, len(tr.pendingSpawn))
	want := runTree()
	if want != 23*22*21/6 {
		t.Fatalf("counted %d 4-cliques under vertex 23, want C(23, 3)", want)
	}
	if tr.DeferredSpawns == 0 {
		t.Fatal("no spawn was deferred; the test covers no queue")
	}
	model = nil
	if allocs := testing.AllocsPerRun(5, func() {
		if got := runTree(); got != want {
			t.Fatalf("counted %d, want %d", got, want)
		}
	}); allocs != 0 {
		t.Fatalf("a warm search tree allocates %.0f times, want 0", allocs)
	}
}
