package task

import (
	"reflect"
	"testing"
	"unsafe"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/setops"
)

func buildWorkload(t *testing.T, g *graph.Graph, p pattern.Pattern, induced bool) *Workload {
	t.Helper()
	s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
	if err != nil {
		t.Fatal(err)
	}
	return NewWorkload(g, s, NewCandPool(g))
}

func TestNodePathAndAncestor(t *testing.T) {
	g := gen.Clique(6)
	w := buildWorkload(t, g, pattern.FourClique(), false)
	root := w.NewNode(0, 5, nil, 1)
	c1 := w.NewNode(1, 3, root, 1)
	c2 := w.NewNode(2, 2, c1, 1)
	buf := make([]graph.VertexID, 4)
	path := c2.Path(buf)
	want := []graph.VertexID{5, 3, 2}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if c2.Ancestor(0) != root || c2.Ancestor(2) != c2 {
		t.Fatal("Ancestor walk broken")
	}
	if root.Live != 1 || c1.Live != 1 {
		t.Fatalf("live counts: root=%d c1=%d", root.Live, c1.Live)
	}
}

func TestExecuteCliqueChain(t *testing.T) {
	g := gen.Clique(8)
	w := buildWorkload(t, g, pattern.FourClique(), false)
	root := w.NewNode(0, 7, nil, 1)
	prof := w.ExecuteReuse(root, 0, nil)
	// C1 = N(7): a CSR read, a write of 7 ids.
	if len(prof.Reads) != 1 || prof.Reads[0].Class != ReadCSR {
		t.Fatalf("root reads = %+v", prof.Reads)
	}
	if prof.OutBytes != 7*4 {
		t.Fatalf("root out bytes = %d", prof.OutBytes)
	}
	if len(root.Cand) != 7 {
		t.Fatalf("root candidates = %v", root.Cand)
	}
	// Symmetry bound: children must be < 7 → all 7 qualify.
	if root.SpawnLimit != 7 {
		t.Fatalf("spawn limit = %d", root.SpawnLimit)
	}
	v, pruned, ok := w.NextChild(root)
	if !ok || pruned != 0 || v != 0 {
		t.Fatalf("first child = %d (pruned %d, ok %v)", v, pruned, ok)
	}
	c1 := w.NewNode(1, v, root, 1)
	prof1 := w.ExecuteReuse(c1, 1, nil)
	// C2 = C1 ∩ N(v1): one intermediate read + one CSR read.
	var inter, csr int
	for _, r := range prof1.Reads {
		if r.Class == ReadIntermediate {
			inter++
		} else {
			csr++
		}
	}
	if inter != 1 || csr != 1 {
		t.Fatalf("c1 reads: %d intermediate, %d csr", inter, csr)
	}
	if prof1.SegPairs == 0 {
		t.Fatal("no IU work recorded for intersection")
	}
	if prof1.IntermediateLines != setops.Lines(len(root.Cand)) {
		t.Fatalf("intermediate lines = %d", prof1.IntermediateLines)
	}
}

func TestExecuteAliasPlan(t *testing.T) {
	// Diamond: C3 aliases C2; the leaf-parent at depth 2 owns nothing.
	g := gen.Clique(8)
	w := buildWorkload(t, g, pattern.Diamond(), false)
	if !w.PlanIsAlias(3) || w.PlanIsAlias(2) || w.PlanIsAlias(1) {
		t.Fatal("alias detection wrong for diamond")
	}
	if w.NeedsToken(2) {
		t.Fatal("leaf-parent should not need a token")
	}
	if !w.NeedsToken(0) || !w.NeedsToken(1) {
		t.Fatal("internal depths need tokens")
	}
	root := w.NewNode(0, 7, nil, 1)
	w.ExecuteReuse(root, 0, nil)
	v, _, _ := w.NextChild(root)
	c1 := w.NewNode(1, v, root, 1)
	w.ExecuteReuse(c1, 1, nil)
	v2, _, ok := w.NextChild(c1)
	if !ok {
		t.Fatal("no depth-2 candidate in a clique")
	}
	c2 := w.NewNode(2, v2, c1, 1)
	prof := w.ExecuteReuse(c2, -1, nil)
	if !c2.SharedCand {
		t.Fatal("alias task not marked shared")
	}
	if c2.Slot != c1.Slot {
		t.Fatalf("alias slot = %d, want owner's %d", c2.Slot, c1.Slot)
	}
	if len(prof.Reads) != 0 || prof.SegPairs != 0 || prof.OutBytes != 0 {
		t.Fatalf("alias profile should be empty: %+v", prof)
	}
	if &c2.Cand[0] != &c1.Cand[0] {
		t.Fatal("alias candidate set is a copy, not a reference")
	}
}

func TestExecuteTwicePanics(t *testing.T) {
	g := gen.Clique(4)
	w := buildWorkload(t, g, pattern.Triangle(), false)
	n := w.NewNode(0, 0, nil, 1)
	w.ExecuteReuse(n, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("double execute did not panic")
		}
	}()
	w.ExecuteReuse(n, 1, nil)
}

// TestCountLeafMatchesAgainstEnumeration walks whole search trees and
// checks every leaf parent's count against the leaves enumerated straight
// from the graph (enumerateLeaves). Both forms are met: leaf parents
// counted when they execute, and alias leaf parents searching a stored
// set, by bit probe when it carries a hub bitset and by binary search
// otherwise.
func TestCountLeafMatchesAgainstEnumeration(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	if g.HubIndex() == nil {
		t.Fatal("graph has no hubs: the bit-probe paths would go untested")
	}
	var counted, probed, searched int
	// The 3-star's last leaf draws from a stored copy of the centre's
	// neighbour list, bounded below the earlier leaves it must skip.
	for _, pat := range []pattern.Pattern{pattern.Triangle(), pattern.TailedTriangle(), pattern.Diamond(), pattern.FourCycle(), pattern.StarN(3)} {
		for _, induced := range []bool{false, true} {
			w := buildWorkload(t, g, pat, induced)
			var walk func(n *Node)
			walk = func(n *Node) {
				slot := -1
				if w.NeedsToken(n.Depth) {
					slot = 0
				}
				w.ExecuteReuse(n, slot, nil)
				if n.Depth == w.LeafDepth()-1 {
					switch {
					case n.Cand == nil:
						counted++
					case n.candBits != nil:
						probed++
					default:
						searched++
					}
					want := enumerateLeaves(w, n)
					if got := w.CountLeafMatches(n); got != want {
						t.Fatalf("%s: leaf parent %v counts %d, enumerated %d", w.S.Name, n.Path(make([]graph.VertexID, n.Depth+1)), got, want)
					}
					return
				}
				for {
					v, _, ok := w.NextChild(n)
					if !ok {
						break
					}
					c := w.NewNode(n.Depth+1, v, n, n.TreeID)
					walk(c)
					w.Release(c)
				}
			}
			for v := range g.NumVertices() {
				r := w.NewNode(0, graph.VertexID(v), nil, 1)
				walk(r)
				w.Release(r)
			}
		}
	}
	if counted == 0 || probed == 0 || searched == 0 {
		t.Fatalf("leaf parents counted %d, probed %d, searched %d: a form went untested", counted, probed, searched)
	}
}

// enumerateLeaves counts the leaf vertices completing leaf parent n from
// the graph's neighbour lists and the pattern alone, not the plan: each
// neighbour x of a pattern-adjacent ancestor is a leaf when it is a new
// vertex, meets every pattern edge (and, induced, every non-edge) to the
// ancestors, and obeys the symmetry restrictions on the last position.
func enumerateLeaves(w *Workload, n *Node) int64 {
	s, leaf := w.S, w.LeafDepth()
	path := n.Path(make([]graph.VertexID, leaf))
	first := 0
	for !s.Pattern.HasEdge(first, leaf) {
		first++
	}
	var count int64
next:
	for _, x := range w.G.Neighbors(path[first]) {
		for j, u := range path {
			pe, ge := s.Pattern.HasEdge(j, leaf), w.G.HasEdge(u, x)
			if x == u || pe && !ge || s.Induced && !pe && ge {
				continue next
			}
		}
		for _, r := range s.Restrictions {
			if r.Later == leaf && x >= path[r.Earlier] {
				continue next
			}
		}
		count++
	}
	return count
}

// TestNodeSize pins Node to 128 bytes or less. A node is allocated per
// search-tree node and recycled through the workload's free list; at 136
// bytes Go rounds it up to the 144-byte size class, which measured +0.6%
// allocated bytes per run on a 16-chip yo × tt_e cluster (in every one of
// 8 alternating pairs). New per-node state belongs in the padding after
// the Executed and SharedCand flags.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 128 {
		t.Fatalf("task.Node is %d bytes, want <= 128", size)
	}
}

func TestSplitRangeLimitsChildren(t *testing.T) {
	g := gen.Clique(10)
	w := buildWorkload(t, g, pattern.Triangle(), false)
	n := w.NewNode(0, 9, nil, 1)
	w.ExecuteReuse(n, 0, nil)
	if n.SpawnLimit != 9 {
		t.Fatalf("spawn limit = %d", n.SpawnLimit)
	}
	// A split narrows the spawn window to [2, 5).
	n.NextCand, n.SpawnLimit = 2, 5
	var got []graph.VertexID
	for {
		v, _, ok := w.NextChild(n)
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[0] != n.Cand[2] || got[2] != n.Cand[4] {
		t.Fatalf("split children = %v", got)
	}
	if n.HasMoreCands() {
		t.Fatal("split range not exhausted")
	}
}

func TestNodeFreelistReuse(t *testing.T) {
	g := gen.Clique(4)
	w := buildWorkload(t, g, pattern.Triangle(), false)
	n := w.NewNode(0, 1, nil, 1)
	w.ExecuteReuse(n, 0, nil)
	n.NextCand = n.SpawnLimit
	w.Release(n)
	n2 := w.NewNode(1, 2, nil, 2)
	if n2 != n {
		t.Log("freelist did not reuse (allowed but unexpected)")
	}
	if n2.Executed || n2.Cand != nil || n2.Slot != -1 {
		t.Fatalf("reused node not reset: %+v", n2)
	}
}

func TestReleaseUnderflowPanics(t *testing.T) {
	g := gen.Clique(4)
	w := buildWorkload(t, g, pattern.Triangle(), false)
	root := w.NewNode(0, 0, nil, 1)
	child := w.NewNode(1, 1, root, 1)
	w.Release(child)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	child2 := w.NewNode(1, 2, root, 1)
	w.Release(child2)
	w.Release(&Node{Parent: root}) // parent.Live now negative
}

// walkCompare runs the same depth-first task tree on w and ref (a copy
// of w's setup without a hub index, so every set operation takes the
// list kernels) down to the leaf parents and fails on the first node
// whose candidate set, spawn limit, profile or leaf-match count differs. It returns how many set-operation operands
// with a bitset view each side's walk handed to its dispatcher.
func walkCompare(t *testing.T, name string, w, ref *Workload, n, rn *Node) (bits, refBits int) {
	t.Helper()
	slot := n.Depth
	if n.Depth == w.LeafDepth() {
		slot = -1
	}
	got, want := w.ExecuteReuse(n, slot, nil), ref.ExecuteReuse(rn, slot, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s depth %d vertex %d: profile %+v, list kernels %+v", name, n.Depth, n.Vertex, got, want)
	}
	if n.SpawnLimit != rn.SpawnLimit || !reflect.DeepEqual(n.Cand, rn.Cand) {
		t.Fatalf("%s depth %d vertex %d: cand %v limit %d, list kernels %v limit %d",
			name, n.Depth, n.Vertex, n.Cand, n.SpawnLimit, rn.Cand, rn.SpawnLimit)
	}
	bits, refBits = bitOperands(w, n), bitOperands(ref, rn)
	if n.Depth == w.LeafDepth()-1 {
		if got, want := w.CountLeafMatches(n), ref.CountLeafMatches(rn); got != want {
			t.Fatalf("%s depth %d vertex %d: %d leaf matches, list kernels %d", name, n.Depth, n.Vertex, got, want)
		}
		return bits, refBits
	}
	for {
		v, _, ok := w.NextChild(n)
		rv, _, rok := ref.NextChild(rn)
		if ok != rok || v != rv {
			t.Fatalf("%s: next child %d/%v, list kernels %d/%v", name, v, ok, rv, rok)
		}
		if !ok {
			break
		}
		c, rc := w.NewNode(n.Depth+1, v, n, n.TreeID), ref.NewNode(n.Depth+1, v, rn, n.TreeID)
		b, rb := walkCompare(t, name, w, ref, c, rc)
		bits, refBits = bits+b, refBits+rb
		w.Release(c)
		ref.Release(rc)
	}
	return bits, refBits
}

// bitOperands counts the operands of the executed node n's set
// operations that carry a bitset view.
func bitOperands(w *Workload, n *Node) int {
	if n.Depth == w.LeafDepth() || w.PlanIsAlias(n.Depth+1) {
		return 0
	}
	plan := &w.S.Plans[n.Depth+1]
	if len(plan.Steps) == 0 {
		return 0 // a copy, not a set operation
	}
	path := n.Path(make([]graph.VertexID, w.S.Depth()))
	refs := []pattern.SetRef{plan.Base}
	for _, op := range plan.Steps {
		refs = append(refs, op.Ref)
	}
	c := 0
	for _, ref := range refs {
		if op, _ := w.resolve(n, ref, path); op.Bits != nil {
			c++
		}
	}
	return c
}

// TestExecuteReuseHubKernelsIdentical checks that routing ExecuteReuse's
// set operations through the hub-bitset dispatcher leaves every
// candidate set, spawn limit and timing profile identical to the list
// kernels, on a skewed graph with hubs (hub neighbor lists and stored
// copies of them carry bitsets; the induced pattern's plans subtract hub
// neighborhoods) and on a graph without a hub index.
func TestExecuteReuseHubKernelsIdentical(t *testing.T) {
	skewed := gen.RMAT(2048, 24000, 0.6, 0.15, 0.15, 11)
	if skewed.HubIndex() == nil {
		t.Fatal("skewed graph has no hubs")
	}
	flat := gen.Clique(12)
	if flat.HubIndex() != nil {
		t.Fatal("clique graph should have no hub index")
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		p       pattern.Pattern
		induced bool
		roots   int
	}{
		{"tc", skewed, pattern.Triangle(), false, 2048},
		{"4cl", skewed, pattern.FourClique(), false, 256},
		{"tt_e", skewed, pattern.TailedTriangle(), false, 64},
		{"tt_v", skewed, pattern.TailedTriangle(), true, 64},
		{"4cl-nohub", flat, pattern.FourClique(), false, 12},
	}
	for _, tc := range cases {
		w := buildWorkload(t, tc.g, tc.p, tc.induced)
		ref := buildWorkload(t, tc.g, tc.p, tc.induced)
		ref.hubs = nil
		subs := false
		for _, pl := range w.S.Plans {
			for _, op := range pl.Steps {
				subs = subs || op.Sub
			}
		}
		if tc.induced && !subs {
			t.Fatalf("%s: induced schedule has no subtraction", tc.name)
		}
		// Hubs are the low ids of an R-MAT graph; roots are taken from
		// the top so deep trees stay small but still reach hub operands.
		bits, refBits := 0, 0
		for r := 0; r < tc.roots; r++ {
			v := graph.VertexID(tc.g.NumVertices() - 1 - r)
			n, rn := w.NewNode(0, v, nil, r), ref.NewNode(0, v, nil, r)
			b, rb := walkCompare(t, tc.name, w, ref, n, rn)
			bits, refBits = bits+b, refBits+rb
			w.Release(n)
			ref.Release(rn)
		}
		if tc.g == skewed && bits == 0 {
			t.Fatalf("%s: the walk reached no operand with hub bits", tc.name)
		}
		if refBits != 0 {
			t.Fatalf("%s: the reference walk reached %d operands with bits", tc.name, refBits)
		}
	}
}

// TestPooledBuffersHoldLargestSet pins the pool's invariant: every buffer
// Release pools can hold the graph's largest neighbour set, so no set
// kernel ever grows one. A full search over each pattern releases every
// computed set, and a root's snapshot (CopyCand, as a split takes it) is
// released by the node that adopted it.
func TestPooledBuffersHoldLargestSet(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 3)
	for _, p := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.Diamond(), pattern.TailedTriangle(), pattern.FourCycle()} {
		w := buildWorkload(t, g, p, true)
		var walk func(n *Node)
		walk = func(n *Node) {
			w.ExecuteReuse(n, 0, nil)
			if n.Depth == 0 {
				adopted := w.NewNode(0, n.Vertex, nil, 2)
				adopted.Executed, adopted.Cand = true, w.CopyCand(n.Cand)
				w.Release(adopted)
			}
			if n.Depth == w.LeafDepth()-1 {
				w.CountLeafMatches(n)
			}
			for n.HasMoreCands() {
				v, _, ok := w.NextChild(n)
				if !ok {
					break
				}
				walk(w.NewNode(n.Depth+1, v, n, 1))
			}
			w.Release(n)
		}
		for v := 0; v < g.NumVertices(); v++ {
			walk(w.NewNode(0, graph.VertexID(v), nil, 1))
		}
		if len(w.cands.free) == 0 {
			t.Fatalf("%s: nothing was pooled", p.Name())
		}
		for _, b := range w.cands.free {
			if cap(b) < g.MaxDegree() {
				t.Fatalf("%s: a pooled buffer holds %d ids, the largest set %d", p.Name(), cap(b), g.MaxDegree())
			}
		}
	}
}
