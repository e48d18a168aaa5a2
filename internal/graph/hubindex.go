package graph

import (
	"cmp"
	"slices"
)

// DefaultHubBudgetBytes is the memory budget of the lazily built hub
// index: the top-K selection shrinks K until the whole index (bitsets
// plus the per-vertex slot table) fits.
const DefaultHubBudgetBytes = 32 << 20

// MinHubDegree is the smallest degree a vertex needs to be indexed as a
// hub. Below it a bitmap probe saves too little over a merge walk to
// justify the bitset footprint.
const MinHubDegree = 64

// HubIndex holds word-packed adjacency bitsets for the highest-degree
// ("hub") vertices of a graph. Pattern-aware miners probe candidate lists
// against these bitsets in O(1) per element instead of merge-walking the
// hub's long adjacency list (the G²Miner hybrid-kernel technique). The
// index is immutable once built and safe for concurrent readers.
type HubIndex struct {
	words int     // uint64 words per bitset = ceil(n/64)
	slot  []int32 // per-vertex bitset slot, -1 if not a hub
	hubs  []VertexID
	bits  []uint64 // len(hubs)*words, slot i at [i*words, (i+1)*words)
}

// HubIndex returns the graph's shared hub index, building it on first use
// with DefaultHubBudgetBytes. It returns nil when no vertex qualifies
// (small or near-regular graphs) or the budget cannot hold even the slot
// table plus one bitset.
func (g *Graph) HubIndex() *HubIndex {
	return g.HubIndexWithBudget(DefaultHubBudgetBytes)
}

// HubIndexWithBudget is HubIndex with an explicit memory budget in bytes
// (values <= 0 select the default). The index is built once per graph and
// shared: the budget of the first call wins and later calls return the
// cached index regardless of their argument.
func (g *Graph) HubIndexWithBudget(budgetBytes int64) *HubIndex {
	if budgetBytes <= 0 {
		budgetBytes = DefaultHubBudgetBytes
	}
	g.hubMu.Lock()
	defer g.hubMu.Unlock()
	if !g.hubBuilt {
		g.hub = buildHubIndex(g, budgetBytes)
		g.hubBuilt = true
	}
	return g.hub
}

// buildHubIndex selects the top-K vertices by degree (ties broken by
// lower id, so the index is deterministic) subject to degree >=
// MinHubDegree and the memory budget, then packs their adjacency bitsets.
func buildHubIndex(g *Graph, budgetBytes int64) *HubIndex {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	words := (n + 63) / 64
	perHub := int64(words)*8 + 4 // bitset words + hubs entry
	fixed := int64(n) * 4        // slot table
	if fixed+perHub > budgetBytes {
		return nil
	}
	maxHubs := int((budgetBytes - fixed) / perHub)
	cands := make([]VertexID, 0, 64)
	for v := 0; v < n; v++ {
		if g.Degree(VertexID(v)) >= MinHubDegree {
			cands = append(cands, VertexID(v))
		}
	}
	if len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, func(a, b VertexID) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(cands) > maxHubs {
		cands = cands[:maxHubs]
	}
	h := &HubIndex{
		words: words,
		slot:  make([]int32, n),
		hubs:  cands,
		bits:  make([]uint64, len(cands)*words),
	}
	for i := range h.slot {
		h.slot[i] = -1
	}
	for i, v := range cands {
		h.slot[v] = int32(i)
		row := h.bits[i*words : (i+1)*words]
		for _, u := range g.Neighbors(v) {
			row[uint32(u)>>6] |= 1 << (uint32(u) & 63)
		}
	}
	return h
}

// Bits returns the adjacency bitset of v, or nil if v is not a hub. The
// returned slice aliases the index and must not be modified. A nil
// receiver is valid and always returns nil.
func (h *HubIndex) Bits(v VertexID) []uint64 {
	if h == nil {
		return nil
	}
	s := h.slot[v]
	if s < 0 {
		return nil
	}
	return h.bits[int(s)*h.words : (int(s)+1)*h.words]
}

// IsHub reports whether v has an indexed bitset.
func (h *HubIndex) IsHub(v VertexID) bool {
	return h != nil && h.slot[v] >= 0
}

// NumHubs reports how many vertices are indexed.
func (h *HubIndex) NumHubs() int {
	if h == nil {
		return 0
	}
	return len(h.hubs)
}

// Hubs returns the indexed vertices in decreasing-degree order. The slice
// aliases the index and must not be modified.
func (h *HubIndex) Hubs() []VertexID {
	if h == nil {
		return nil
	}
	return h.hubs
}

// Words reports the bitset width in uint64 words.
func (h *HubIndex) Words() int {
	if h == nil {
		return 0
	}
	return h.words
}

// MemoryBytes reports the index's approximate footprint, the quantity the
// build budget constrains.
func (h *HubIndex) MemoryBytes() int64 {
	if h == nil {
		return 0
	}
	return int64(len(h.bits))*8 + int64(len(h.slot))*4 + int64(len(h.hubs))*4
}
