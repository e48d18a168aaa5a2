package datasets

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"shogun/internal/graph"
)

// csrDigest is FNV-64a over every row in vertex order: the row's length,
// then its neighbours, each as a little-endian uint32.
func csrDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(x uint32) {
		binary.LittleEndian.PutUint32(b[:], x)
		h.Write(b[:])
	}
	for v := 0; v < g.NumVertices(); v++ {
		row := g.Neighbors(graph.VertexID(v))
		put(uint32(len(row)))
		for _, u := range row {
			put(uint32(u))
		}
	}
	return h.Sum64()
}

// TestAnalogueDigests pins every analogue's CSR, so a change to a
// generator's draws or to the CSR builder that moves one edge shows here
// before it shows as a changed count or cycle.
func TestAnalogueDigests(t *testing.T) {
	want := map[string]struct {
		digest    uint64
		vertices  int
		edges     int64
		maxDegree int
	}{
		"wi": {0x9eed83e7b96b1d0c, 8192, 55093, 855},
		"as": {0xdeb61c301ade251e, 9000, 93501, 816},
		"yo": {0xd72e3e8cf98b4686, 16384, 37623, 780},
		"pa": {0x46256d88c7118c05, 80000, 319979, 20},
		"lj": {0xabd0c54a5c2ac582, 32768, 154179, 1450},
		"or": {0xacb96041d9818ba8, 8192, 172765, 1443},
	}
	for _, s := range All() {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", s.Name)
			continue
		}
		g := s.Make()
		if d := csrDigest(g); d != w.digest || g.NumVertices() != w.vertices || g.NumEdges() != w.edges || g.MaxDegree() != w.maxDegree {
			t.Errorf("%s: digest %#x, %d vertices, %d edges, max degree %d; want %#x, %d, %d, %d",
				s.Name, d, g.NumVertices(), g.NumEdges(), g.MaxDegree(), w.digest, w.vertices, w.edges, w.maxDegree)
		}
	}
}
