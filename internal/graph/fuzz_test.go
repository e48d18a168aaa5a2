package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the text parser: arbitrary input must either
// parse into a graph satisfying the CSR invariants or return an error —
// never panic. Every parse runs under a fuzzer-chosen vertex cap, and no
// accepted graph may reach it. The result must also be the reference
// Scanner/Fields reader's graph, or its exact error text.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n", uint16(7))
	f.Add("# comment\n5 5\n", uint16(5))
	f.Add("", uint16(0))
	f.Add("999999999999999999 0\n", uint16(100))
	f.Add("a b\n0 1", uint16(1))
	f.Add("0 2147483646\n", uint16(1000))
	f.Add("# vertices=2000000000\n0 1\n", uint16(1000))
	f.Add("# vertices=9\n0 1\n", uint16(8))
	f.Add("# vertices=8\n0 1\n", uint16(8))
	f.Add("0 7\n", uint16(7))
	for _, in := range edgeListShapes {
		f.Add(in, uint16(9))
	}
	f.Fuzz(func(t *testing.T, input string, c uint16) {
		vertexCap := int(c) + 1
		g, err := ReadEdgeList(strings.NewReader(input), vertexCap)
		ref, refErr := refReadEdgeList(strings.NewReader(input), vertexCap)
		sameBuild(t, g, err, ref, refErr)
		if err != nil {
			return
		}
		if g.NumVertices() >= vertexCap {
			t.Fatalf("accepted %d vertices under a cap of %d", g.NumVertices(), vertexCap)
		}
		// Parsed graphs must round-trip and keep invariants, and the
		// text must be byte for byte the Fprintf writer's (served
		// uploads are keyed by its digest).
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatalf("write failed on parsed graph: %v", err)
		}
		if want := refEdgeListText(g); buf.String() != want {
			t.Fatalf("wrote %q, reference writer %q", buf.String(), want)
		}
		g2, err := ReadEdgeList(&buf, 0)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				g.NumVertices(), g.NumEdges(), g2.NumVertices(), g2.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			nb := g.Neighbors(VertexID(v))
			for i := 1; i < len(nb); i++ {
				if nb[i] <= nb[i-1] {
					t.Fatal("neighbor list not strictly sorted")
				}
			}
		}
	})
}

// FuzzBinaryRoundTrip builds a graph from fuzzer-chosen edges and
// requires WriteBinary→ReadBinary to reproduce it exactly.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 2})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(16), []byte{0, 0, 3, 3, 5, 9, 15, 2})
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		if n == 0 {
			n = 1
		}
		edges := make([]Edge, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				U: VertexID(int(raw[i]) % int(n)),
				V: VertexID(int(raw[i+1]) % int(n)),
			})
		}
		g, err := New(int(n), edges)
		if err != nil {
			t.Fatalf("valid edges rejected: %v", err)
		}
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("read back own output: %v", err)
		}
		if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("shape changed: %d/%d vs %d/%d",
				g.NumVertices(), g.NumEdges(), got.NumVertices(), got.NumEdges())
		}
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Neighbors(VertexID(v)), got.Neighbors(VertexID(v))
			if len(a) != len(b) {
				t.Fatalf("vertex %d: degree %d vs %d", v, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("vertex %d: neighbors differ", v)
				}
			}
		}
	})
}

// FuzzReadBinary hardens the binary decoder against corrupt inputs.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	_ = MustNew(4, []Edge{{0, 1}, {1, 2}}).WriteBinary(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded graphs must be internally consistent.
		for v := 0; v < g.NumVertices(); v++ {
			_ = g.Degree(VertexID(v))
		}
		_ = g.NumEdges()
	})
}
