package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"shogun/internal/setops"
)

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero Graph: got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	g2 := MustNew(0, nil)
	if g2.NumVertices() != 0 || g2.NumEdges() != 0 {
		t.Fatalf("empty Graph: got %d vertices, %d edges", g2.NumVertices(), g2.NumEdges())
	}
}

func TestNewDedupAndSort(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 0}, {3, 3}, {1, 2}})
	if got := g.NumEdges(); got != 3 {
		t.Fatalf("NumEdges = %d, want 3 (dupes and self loop dropped)", got)
	}
	want := map[VertexID][]VertexID{
		0: {1, 2},
		1: {0, 2},
		2: {0, 1},
		3: {},
	}
	for v, w := range want {
		got := g.Neighbors(v)
		if len(got) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual([]VertexID(got), w) {
			t.Errorf("Neighbors(%d) = %v, want %v", v, got, w)
		}
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if g.Degree(3) != 0 {
		t.Errorf("Degree(3) = %d, want 0", g.Degree(3))
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(2, []Edge{{0, 2}}); err == nil {
		t.Fatal("New accepted out-of-range edge")
	}
	if _, err := New(-1, nil); err == nil {
		t.Fatal("New accepted negative vertex count")
	}
}

func TestHasEdge(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}})
	cases := []struct {
		u, v VertexID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, true}, {0, 3, false},
		{2, 2, false}, {3, 4, true}, {1, 4, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	// Star graph: one hub of degree 4, four leaves of degree 1.
	g := MustNew(5, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	s := g.ComputeStats()
	if s.Vertices != 5 || s.Edges != 4 || s.MaxDegree != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if want := 8.0 / 5.0; s.AvgDegree != want {
		t.Errorf("AvgDegree = %v, want %v", s.AvgDegree, want)
	}
	if s.Skewness <= 0 {
		t.Errorf("star graph skewness = %v, want positive", s.Skewness)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := randomEdges(rng, 50, 200)
	g := MustNew(50, edges)
	g2 := MustNew(50, g.Edges())
	assertSameGraph(t, g, g2)
}

func TestRelabelPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := MustNew(30, randomEdges(rng, 30, 100))
	order := g.DegreeOrder()
	h, err := g.Relabel(order)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatalf("relabel changed edge count: %d != %d", h.NumEdges(), g.NumEdges())
	}
	// Degrees must be ascending after degree-order relabeling.
	for v := 1; v < h.NumVertices(); v++ {
		if h.Degree(VertexID(v)) < h.Degree(VertexID(v-1)) {
			t.Fatalf("degree order violated at %d: %d < %d", v, h.Degree(VertexID(v)), h.Degree(VertexID(v-1)))
		}
	}
	// Edge (a,b) in g must appear as (inv[a], inv[b]) in h.
	inv := make([]VertexID, g.NumVertices())
	for newID, oldID := range order {
		inv[oldID] = VertexID(newID)
	}
	for _, e := range g.Edges() {
		if !h.HasEdge(inv[e.U], inv[e.V]) {
			t.Fatalf("edge (%d,%d) lost in relabel", e.U, e.V)
		}
	}
}

func TestRelabelRejectsBadPermutation(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}})
	if _, err := g.Relabel([]VertexID{0, 0, 1}); err == nil {
		t.Fatal("Relabel accepted duplicate entries")
	}
	if _, err := g.Relabel([]VertexID{0, 1}); err == nil {
		t.Fatal("Relabel accepted short permutation")
	}
}

func TestEdgeListIO(t *testing.T) {
	in := "# comment\n% another\n0 1\n1 2\n 2 0 \n\n"
	g, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 x\n", "-1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(bad), 0); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", bad)
		}
	}
}

// TestEdgeListVertexCap pins the caller's vertex cap: a header or an id
// that reaches it fails with ErrVertexCap, and a graph just under it
// parses.
func TestEdgeListVertexCap(t *testing.T) {
	for _, c := range []struct {
		in        string
		vertexCap int
		ok        bool
	}{
		{"0 2147483646\n", 1 << 20, false},
		{"# vertices=2000000000\n0 1\n", 1 << 20, false},
		{"0 1\n1 2\n", 3, false},          // ids imply 3 vertices
		{"# vertices=3\n0 1\n", 3, false}, // declared at the cap
		{"0 1\n1 2\n", 4, true},
		{"# vertices=3\n0 1\n", 4, true},
	} {
		g, err := ReadEdgeList(strings.NewReader(c.in), c.vertexCap)
		switch {
		case c.ok && err != nil:
			t.Errorf("cap %d, %q: %v", c.vertexCap, c.in, err)
		case c.ok && g.NumVertices() >= c.vertexCap:
			t.Errorf("cap %d, %q: accepted %d vertices", c.vertexCap, c.in, g.NumVertices())
		case !c.ok && c.vertexCap > 0 && !errors.Is(err, ErrVertexCap):
			t.Errorf("cap %d, %q: err %v, want ErrVertexCap", c.vertexCap, c.in, err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := MustNew(64, randomEdges(rng, 64, 400))
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
	if g2.MaxDegree() != g.MaxDegree() {
		t.Errorf("MaxDegree lost: %d != %d", g2.MaxDegree(), g.MaxDegree())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all, sorry!"))); err == nil {
		t.Fatal("ReadBinary accepted garbage")
	}
}

// Property: for any random edge multiset, the CSR invariants hold.
func TestCSRInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%60) + 2
		rng := rand.New(rand.NewSource(seed))
		g := MustNew(n, randomEdges(rng, n, int(mRaw%500)))
		total := int64(0)
		for v := 0; v < n; v++ {
			nb := g.Neighbors(VertexID(v))
			total += int64(len(nb))
			for i := range nb {
				if nb[i] == VertexID(v) {
					return false // self loop survived
				}
				if i > 0 && nb[i] <= nb[i-1] {
					return false // not strictly sorted
				}
				// Symmetry: v must appear in nb[i]'s list.
				if !g.HasEdge(nb[i], VertexID(v)) {
					return false
				}
			}
		}
		return total == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
	}
	return edges
}

func assertSameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() {
		t.Fatalf("vertex count %d != %d", a.NumVertices(), b.NumVertices())
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("edge count %d != %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		na := append([]VertexID(nil), a.Neighbors(VertexID(v))...)
		nb := append([]VertexID(nil), b.Neighbors(VertexID(v))...)
		sort.Slice(na, func(i, j int) bool { return na[i] < na[j] })
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		if !reflect.DeepEqual(na, nb) {
			t.Fatalf("neighbors of %d differ: %v vs %v", v, na, nb)
		}
	}
}

// checkLowerSplit requires LowerSplit()[v] to be the length of N(v)
// bounded by v, for every vertex.
func checkLowerSplit(t *testing.T, name string, g *Graph) {
	t.Helper()
	lower := g.LowerSplit()
	if len(lower) != g.NumVertices() {
		t.Fatalf("%s: %d entries for %d vertices", name, len(lower), g.NumVertices())
	}
	for v := range lower {
		if want := len(setops.Bound(g.Neighbors(VertexID(v)), VertexID(v))); int(lower[v]) != want {
			t.Fatalf("%s: lower[%d] = %d, want %d", name, v, lower[v], want)
		}
	}
}

func TestLowerSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := MustNew(200, randomEdges(rng, 200, 1500))
	var buf bytes.Buffer
	if err := random.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	roundTrip, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"zero value":  {},
		"no vertices": MustNew(0, nil),
		"isolated":    MustNew(6, []Edge{{2, 4}}),
		"star":        MustNew(5, []Edge{{4, 0}, {4, 1}, {4, 2}, {4, 3}}),
		"random":      random,
		"round trip":  roundTrip,
	} {
		checkLowerSplit(t, name, g)
	}
}

func TestLowerSplitSharedAndConcurrent(t *testing.T) {
	g := MustNew(100, randomEdges(rand.New(rand.NewSource(5)), 100, 600))
	var wg sync.WaitGroup
	got := make([][]int32, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.LowerSplit()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if &got[i][0] != &got[0][0] {
			t.Fatal("concurrent LowerSplit calls returned different slices")
		}
	}
	checkLowerSplit(t, "concurrent", g)
}
