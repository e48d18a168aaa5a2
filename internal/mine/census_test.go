package mine

import (
	"math/big"
	"slices"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
)

func TestCatalogSizes(t *testing.T) {
	// Known counts of connected non-isomorphic graphs: 2 (k=3), 6 (k=4),
	// 21 (k=5), 112 (k=6).
	want := map[int]int{3: 2, 4: 6, 5: 21, 6: 112}
	for k, n := range want {
		ps, err := pattern.AllConnected(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ps) != n {
			t.Errorf("catalog(%d) = %d patterns, want %d", k, len(ps), n)
		}
		// Pairwise non-isomorphic.
		for i := range ps {
			for j := i + 1; j < len(ps); j++ {
				if pattern.Isomorphic(ps[i], ps[j]) {
					t.Errorf("catalog(%d): %s ~ %s", k, ps[i].Name(), ps[j].Name())
				}
			}
		}
	}
	if _, err := pattern.AllConnected(2); err == nil {
		t.Error("catalog accepted k=2")
	}
}

func TestCatalogNamesWellKnown(t *testing.T) {
	ps, _ := pattern.AllConnected(4)
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name()] = true
	}
	for _, want := range []string{"tt", "dia", "4cyc", "4cl", "path4", "star3"} {
		if !names[want] {
			t.Errorf("catalog(4) missing well-known name %s (have %v)", want, names)
		}
	}
}

func TestCensusInvariants(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"er":   gen.ErdosRenyi(40, 140, 1),
		"plc":  gen.PowerLawCluster(40, 4, 0.6, 2),
		"k7":   gen.Clique(7),
		"grid": gen.Grid(4, 4),
	}
	for gname, g := range graphs {
		for k := 3; k <= 4; k++ {
			entries, err := Census(g, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			// Invariant 1: induced counts sum to the number of connected
			// k-sets (independent ESU oracle).
			var total int64
			for _, e := range entries {
				total += e.Induced
			}
			if oracle := countConnectedKSets(g, k); total != oracle {
				t.Errorf("%s k=%d: induced total %d != connected k-sets %d", gname, k, total, oracle)
			}
			// Invariant 2: the Möbius relation predicts every
			// edge-induced count from the induced column.
			pred := edgeInducedFromInduced(entries)
			for i, e := range entries {
				if pred[i].Cmp(big.NewInt(e.EdgeInduced)) != 0 {
					t.Errorf("%s k=%d %s: predicted edge-induced %v != measured %d",
						gname, k, e.Pattern.Name(), pred[i], e.EdgeInduced)
				}
			}
		}
	}
}

func TestCensusKnownValues(t *testing.T) {
	// K6: every connected 3-set is a triangle; C(6,3)=20.
	k6 := gen.Clique(6)
	entries, err := Census(k6, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		switch e.Pattern.Name() {
		case "tc":
			if e.Induced != 20 || e.EdgeInduced != 20 {
				t.Errorf("K6 triangles: %+v", e)
			}
		case "path3":
			if e.Induced != 0 {
				t.Errorf("K6 induced paths: %d", e.Induced)
			}
			if e.EdgeInduced != 60 { // 3 per triangle
				t.Errorf("K6 edge-induced paths: %d", e.EdgeInduced)
			}
		}
	}
	// Grid 3x3: triangle-free; connected 3-sets are all paths.
	grid := gen.Grid(3, 3)
	entries, err = Census(grid, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Pattern.Name() == "tc" && e.Induced != 0 {
			t.Errorf("grid triangles: %d", e.Induced)
		}
		if e.Pattern.Name() == "path3" && e.Induced == 0 {
			t.Error("grid has no paths?")
		}
	}
}

// countConnectedKSets counts k-vertex subsets of g that induce a
// connected subgraph, by direct enumeration over connected extensions
// (Wernicke's ESU): an oracle for the census invariant, independent of
// the miner. Exponential; for small graphs.
func countConnectedKSets(g *graph.Graph, k int) int64 {
	var count int64
	var extend func(sub []graph.VertexID, ext map[graph.VertexID]bool, root graph.VertexID)
	extend = func(sub []graph.VertexID, ext map[graph.VertexID]bool, root graph.VertexID) {
		if len(sub) == k {
			count++
			return
		}
		// Iterate a snapshot: ext mutates during recursion.
		keys := make([]graph.VertexID, 0, len(ext))
		for v := range ext {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		for i, v := range keys {
			// New extension: remaining keys beyond v plus v's exclusive
			// neighbors greater than root and not adjacent to sub.
			next := map[graph.VertexID]bool{}
			for _, u := range keys[i+1:] {
				next[u] = true
			}
			inSub := map[graph.VertexID]bool{}
			for _, u := range sub {
				inSub[u] = true
			}
			adjSub := map[graph.VertexID]bool{}
			for _, u := range sub {
				for _, w := range g.Neighbors(u) {
					adjSub[w] = true
				}
			}
			for _, w := range g.Neighbors(v) {
				if w > root && !inSub[w] && w != v && !adjSub[w] {
					next[w] = true
				}
			}
			extend(append(sub, v), next, root)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		root := graph.VertexID(v)
		ext := map[graph.VertexID]bool{}
		for _, u := range g.Neighbors(root) {
			if u > root {
				ext[u] = true
			}
		}
		extend([]graph.VertexID{root}, ext, root)
	}
	return count
}

// edgeInducedFromInduced predicts a one-k census's edge-induced counts
// from its induced column by the Möbius-style relation: the edge-induced
// count of pattern P is the sum over catalog patterns Q of (number of
// subgraphs of Q isomorphic to P, spanning all of Q's vertices) × the
// induced count of Q. big.Int avoids overflow for dense graphs.
func edgeInducedFromInduced(entries []CensusEntry) []*big.Int {
	out := make([]*big.Int, len(entries))
	for i, p := range entries {
		sum := big.NewInt(0)
		for _, q := range entries {
			if c := spanningCopies(p.Pattern, q.Pattern); c != 0 {
				sum.Add(sum, new(big.Int).Mul(big.NewInt(q.Induced), big.NewInt(c)))
			}
		}
		out[i] = sum
	}
	return out
}

// spanningCopies counts subgraphs of q isomorphic to p using all of q's
// vertices: permutations σ with p's edges ⊆ σ(q)'s edges, divided by
// |Aut(p)|.
func spanningCopies(p, q pattern.Pattern) int64 {
	n := p.N()
	perm := make([]int, n)
	used := make([]bool, n)
	var maps int64
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			maps++
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			ok := true
			for prev := 0; prev < pos; prev++ {
				if p.HasEdge(prev, pos) && !q.HasEdge(perm[prev], v) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			used[v] = true
			perm[pos] = v
			rec(pos + 1)
			used[v] = false
		}
	}
	rec(0)
	return maps / int64(len(p.Automorphisms()))
}
