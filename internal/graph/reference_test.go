package graph

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// refNew is the sort-per-row CSR builder that New replaced, kept as the
// reference New must match exactly: fill each row in input order, sort
// it, then drop duplicates into fresh offsets.
func refNew(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > 1<<31-1 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32 range", n)
	}
	deg := make([]int64, n)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offsets[i+1] = offsets[i] + deg[i]
	}
	adj := make([]VertexID, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		adj[cursor[e.U]] = e.V
		cursor[e.U]++
		adj[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	maxDeg := 0
	write := int64(0)
	newOffsets := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		row := adj[lo:hi]
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		start := write
		var prev VertexID = -1
		for _, u := range row {
			if u == prev {
				continue
			}
			adj[write] = u
			write++
			prev = u
		}
		newOffsets[v+1] = write
		if d := int(write - start); d > maxDeg {
			maxDeg = d
		}
	}
	return &Graph{offsets: newOffsets, neighbors: adj[:write:write], maxDegree: maxDeg}, nil
}

// refReadEdgeList is the Scanner/Fields reader that ReadEdgeList
// replaced, kept as the reference: one string and one fields slice per
// line, built by refNew.
func refReadEdgeList(r io.Reader, vertexCap int) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var edges []Edge
	maxID := int64(-1)
	declared := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "# vertices=") {
			rest := strings.TrimPrefix(line, "# vertices=")
			if i := strings.IndexByte(rest, ' '); i >= 0 {
				rest = rest[:i]
			}
			if n, err := strconv.ParseInt(rest, 10, 32); err == nil && n >= 0 {
				if vertexCap > 0 && n >= int64(vertexCap) {
					return nil, fmt.Errorf("graph: line %d: %d vertices declared: %w (%d)", lineNo, n, ErrVertexCap, vertexCap)
				}
				declared = n
			}
			continue
		}
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		if vertexCap > 0 && maxID+1 >= int64(vertexCap) {
			return nil, fmt.Errorf("graph: line %d: vertex id %d: %w (%d)", lineNo, maxID, ErrVertexCap, vertexCap)
		}
		edges = append(edges, Edge{VertexID(u), VertexID(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := maxID + 1
	if declared > n {
		n = declared
	}
	return refNew(int(n), edges)
}

// refEdgeListText is the text the one-Fprintf-per-edge writer that
// WriteEdgeList replaced produced for g.
func refEdgeListText(g *Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# vertices=%d edges=%d\n", g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if u > VertexID(v) {
				fmt.Fprintf(&b, "%d %d\n", v, u)
			}
		}
	}
	return b.String()
}

// sameBuild fails t unless got and want hold identical CSR arrays and
// maximum degree, or failed with the same error text.
func sameBuild(t *testing.T, got *Graph, gotErr error, want *Graph, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %v, reference error %v", gotErr, wantErr)
		}
		return
	}
	if !slices.Equal(got.offsets, want.offsets) {
		t.Fatalf("offsets %v, reference %v", got.offsets, want.offsets)
	}
	if !slices.Equal(got.neighbors, want.neighbors) {
		t.Fatalf("neighbours %v, reference %v", got.neighbors, want.neighbors)
	}
	if got.maxDegree != want.maxDegree {
		t.Fatalf("MaxDegree %d, reference %d", got.maxDegree, want.maxDegree)
	}
}

// fuzzEdges turns fuzzer bytes into an edge list over n vertices. mode
// bit 0 keeps every id in range; otherwise bytes are taken as they are
// (bit 1: as signed), so ids past n and negative ids reach the range
// check. Bit 2 appends every edge again reversed, and bit 3 adds a self
// loop on the first endpoint.
func fuzzEdges(n int, mode uint8, raw []byte) []Edge {
	id := func(b byte) VertexID {
		switch {
		case mode&1 != 0 && n > 0:
			return VertexID(int(b) % n)
		case mode&2 != 0:
			return VertexID(int8(b))
		}
		return VertexID(b)
	}
	var edges []Edge
	for i := 0; i+1 < len(raw); i += 2 {
		edges = append(edges, Edge{id(raw[i]), id(raw[i+1])})
	}
	if mode&4 != 0 {
		for _, e := range slices.Clone(edges) {
			edges = append(edges, Edge{e.V, e.U})
		}
	}
	if mode&8 != 0 && len(edges) > 0 {
		edges = append(edges, Edge{edges[0].U, edges[0].U})
	}
	return edges
}

// FuzzNewMatchesReference requires New to build exactly what the
// sort-per-row reference builds, or to fail with the same error, on edge
// lists with duplicates, self loops, both orientations, isolated
// vertices and out-of-range ids.
func FuzzNewMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(1), []byte{0, 1, 1, 2})
	f.Add(uint8(5), uint8(1), []byte{0, 3, 0, 1, 4, 0, 2, 0}) // row 0 arrives as 3, 1, 4, 2
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0, 0})
	f.Add(uint8(9), uint8(5), []byte{3, 1, 1, 3, 3, 1, 7, 2, 2, 7, 0, 8})
	f.Add(uint8(200), uint8(13), []byte{199, 0, 5, 150, 5, 150, 150, 5, 17, 17})
	f.Add(uint8(6), uint8(0), []byte{0, 5, 6, 1})
	f.Add(uint8(6), uint8(2), []byte{0, 5, 255, 1})
	f.Fuzz(func(t *testing.T, n, mode uint8, raw []byte) {
		edges := fuzzEdges(int(n), mode, raw)
		g, err := New(int(n), edges)
		ref, refErr := refNew(int(n), edges)
		sameBuild(t, g, err, ref, refErr)
	})
}

// TestNewMatchesReferenceRandom runs the reference comparison on larger
// random multigraphs than the fuzz seeds: skewed and uniform ids, with
// duplicates, self loops and isolated vertices.
func TestNewMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(3000)
		edges := randomEdges(rng, n, rng.Intn(20000))
		for j := range edges {
			if j%3 == 0 {
				edges[j].U = VertexID(rng.Intn(1 + n/50)) // hubs
			}
		}
		g, err := New(n, edges)
		ref, refErr := refNew(n, edges)
		sameBuild(t, g, err, ref, refErr)
	}
}

// edgeListShapes reach every branch of the edge-list reader: headers,
// comments, Unicode and ASCII whitespace, signs, leading zeros, ids past
// the int32 range, short lines and invalid UTF-8. FuzzReadEdgeList seeds
// on them under a cap and TestEdgeListMatchesReference reads them
// without one.
var edgeListShapes = []string{
	"0 1\n1 2\n2 0\n",
	"# vertices=9 edges=1\n0 1\n",
	"# vertices=x\n0 1\n",
	"# vertices=-3\n0 1\n",
	"  +7\t3 \r\n007 0003\n",
	"000000000000000000000000001 2\n",
	"2147483647 1\n",
	"2147483648 1\n",
	"12345678901 0\n",
	"1 -0\n-1 2\n",
	"-1 x\n",
	"1 2 3 4\n",
	"5\n",
	"0\u00a01\n2\u20033\n\u0085 4 5\n",
	"1 2\u00a0\n",
	"\xff\xfe 1\n",
	"1 \xff\n",
	"1_0 2\n",
	"% c\n#c\n\n\t\n1 2",
}

// TestEdgeListMatchesReference requires ReadEdgeList to return the
// reference reader's graph or its exact error text with no vertex cap,
// including a line past the Scanner's 4 MiB token limit.
func TestEdgeListMatchesReference(t *testing.T) {
	for _, in := range append(edgeListShapes, strings.Repeat("7", 1<<22)+" 1\n") {
		g, err := ReadEdgeList(strings.NewReader(in), 0)
		ref, refErr := refReadEdgeList(strings.NewReader(in), 0)
		sameBuild(t, g, err, ref, refErr)
	}
}
