package mine

import (
	"fmt"

	"shogun/internal/graph"
	"shogun/internal/pattern"
)

// CensusEntry is one row of a graphlet census.
type CensusEntry struct {
	Pattern pattern.Pattern
	// Induced counts vertex-induced occurrences; EdgeInduced counts
	// edge-induced (subgraph) occurrences.
	Induced     int64
	EdgeInduced int64
}

// Census counts every connected k-vertex graphlet of g, both vertex- and
// edge-induced — the standard motif-census workload (k = 3..5 practical).
// workers parallelizes each pattern's mining (0 = GOMAXPROCS).
func Census(g *graph.Graph, k, workers int) ([]CensusEntry, error) {
	patterns, err := pattern.AllConnected(k)
	if err != nil {
		return nil, err
	}
	out := make([]CensusEntry, 0, len(patterns))
	for _, p := range patterns {
		se, err := pattern.BuildWith(p, pattern.BuildOptions{})
		if err != nil {
			return nil, fmt.Errorf("mine: census %s: %w", p.Name(), err)
		}
		sv, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: true})
		if err != nil {
			return nil, err
		}
		out = append(out, CensusEntry{
			Pattern:     p,
			EdgeInduced: ParallelCount(g, se, workers).Embeddings,
			Induced:     ParallelCount(g, sv, workers).Embeddings,
		})
	}
	return out, nil
}
