package graph_test

import (
	"strings"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
)

var sinkGraph *graph.Graph

// BenchmarkReadEdgeListUpload parses and builds the edge-list text of a
// served fresh upload: an R-MAT graph of 2048 vertices and 12,000 drawn
// edges, at the upload skew of the repository benchmark's serve mix.
func BenchmarkReadEdgeListUpload(b *testing.B) {
	var text strings.Builder
	if err := gen.RMAT(2048, 12000, 0.57, 0.19, 0.19, 1).WriteEdgeList(&text); err != nil {
		b.Fatal(err)
	}
	in := text.String()
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.ReadEdgeList(strings.NewReader(in), 0)
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}
