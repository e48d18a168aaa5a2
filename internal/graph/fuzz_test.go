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
