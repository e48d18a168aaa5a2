package graph

import (
	"sync"
	"testing"
)

// hubTestGraph builds a star-heavy graph: vertex h_i (i < hubs) is
// connected to every vertex >= hubs, so the first `hubs` vertices have
// degree n-hubs and the rest have degree `hubs`.
func hubTestGraph(t *testing.T, n, hubs int) *Graph {
	t.Helper()
	var edges []Edge
	for h := 0; h < hubs; h++ {
		for v := hubs; v < n; v++ {
			edges = append(edges, Edge{VertexID(h), VertexID(v)})
		}
	}
	g, err := New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// numHubs reports how many vertices h indexes.
func (h *HubIndex) numHubs() int { return len(h.bits) / h.words }

func TestHubIndexBitsMatchNeighbors(t *testing.T) {
	g := hubTestGraph(t, 300, 3)
	h := g.HubIndex()
	if h == nil {
		t.Fatal("no hub index for a graph with degree-297 vertices")
	}
	if h.numHubs() == 0 {
		t.Fatal("hub index indexed no vertices")
	}
	for v := VertexID(0); v < 3; v++ {
		bits := h.Bits(v)
		if bits == nil {
			t.Fatalf("hub %d has nil bits", v)
		}
		want := map[VertexID]bool{}
		for _, u := range g.Neighbors(v) {
			want[u] = true
		}
		for u := 0; u < g.NumVertices(); u++ {
			got := bits[uint32(u)>>6]&(1<<(uint32(u)&63)) != 0
			if got != want[VertexID(u)] {
				t.Fatalf("hub %d bit %d = %v, want %v", v, u, got, want[VertexID(u)])
			}
		}
	}
}

func TestHubIndexSelectsByDegree(t *testing.T) {
	g := hubTestGraph(t, 400, 4)
	h := g.HubIndex()
	if h == nil {
		t.Fatal("nil index")
	}
	// The four star centers (degree 396) must rank before the leaves
	// (degree 4 < MinHubDegree, so leaves are excluded entirely).
	if h.numHubs() != 4 {
		t.Fatalf("%d hubs, want 4 (leaves are below MinHubDegree)", h.numHubs())
	}
	for v := VertexID(0); v < 4; v++ {
		if h.Bits(v) == nil {
			t.Errorf("star center %d not a hub", v)
		}
	}
	if h.Bits(100) != nil {
		t.Error("low-degree leaf indexed as hub")
	}
}

func TestHubIndexBudget(t *testing.T) {
	g := hubTestGraph(t, 512, 6)
	// Budget for the slot table plus ~2 bitsets only.
	perHub := int64(((512+63)/64)*8) + 4
	budget := int64(512*4) + 2*perHub
	h := g.HubIndexWithBudget(budget)
	if h == nil {
		t.Fatal("nil index under 2-hub budget")
	}
	if h.numHubs() != 2 {
		t.Fatalf("%d hubs, want 2 under budget", h.numHubs())
	}
	if used := int64(len(h.bits))*8 + int64(len(h.slot))*4 + int64(h.numHubs())*4; used > budget {
		t.Fatalf("index footprint %d exceeds budget %d", used, budget)
	}
	// A budget too small for even one bitset yields no index.
	g2 := hubTestGraph(t, 512, 6)
	if h2 := g2.HubIndexWithBudget(64); h2 != nil {
		t.Fatalf("tiny budget produced an index with %d hubs", h2.numHubs())
	}
}

func TestHubIndexLazySharedAndConcurrent(t *testing.T) {
	g := hubTestGraph(t, 300, 3)
	var wg sync.WaitGroup
	got := make([]*HubIndex, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.HubIndex()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent HubIndex calls returned different indexes")
		}
	}
	// The first build wins; later budgets don't rebuild.
	if g.HubIndexWithBudget(1) != got[0] {
		t.Fatal("later call with different budget rebuilt the shared index")
	}
}

func TestHubIndexSmallGraphNil(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	if h := g.HubIndex(); h != nil {
		t.Fatalf("tiny graph got a hub index with %d hubs", h.numHubs())
	}
	// The nil index has no bits.
	var h *HubIndex
	if h.Bits(0) != nil {
		t.Fatal("nil HubIndex returned bits")
	}
}
