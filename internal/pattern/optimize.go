package pattern

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// GraphShape summarizes the input-graph statistics the schedule optimizer
// needs. It deliberately mirrors what GraphPi's cost model consumes:
// scale and density.
type GraphShape struct {
	Vertices float64
	// EdgeProb is the probability that a uniformly random vertex pair is
	// adjacent (2E / V²).
	EdgeProb float64
}

// ShapeOf builds a GraphShape from vertex and edge counts.
func ShapeOf(vertices int, edges int64) GraphShape {
	v := float64(vertices)
	if v < 2 {
		v = 2
	}
	return GraphShape{
		Vertices: v,
		EdgeProb: math.Min(1, 2*float64(edges)/(v*v)),
	}
}

// EstimateCost predicts the relative exploration cost of a matching order
// under the Erdős–Rényi approximation GraphPi uses: the expected number
// of partial embeddings after matching positions 0..i is
//
//	V^(i+1) · p^(edges within the prefix) / (prefix symmetry factor)
//
// and the total cost is the sum over prefixes (each partial embedding is
// one task). Lower is better. The estimate is returned in log space to
// stay finite for large graphs.
func EstimateCost(p Pattern, order []int, shape GraphShape) float64 {
	logV := math.Log(shape.Vertices)
	logP := math.Log(math.Max(shape.EdgeProb, 1e-12))
	total := math.Inf(-1) // log-sum-exp accumulator
	prefixEdges := 0
	for i := range order {
		for j := 0; j < i; j++ {
			if p.HasEdge(order[j], order[i]) {
				prefixEdges++
			}
		}
		logCount := float64(i+1)*logV + float64(prefixEdges)*logP
		// log-sum-exp(total, logCount)
		if logCount > total {
			total, logCount = logCount, total
		}
		total += math.Log1p(math.Exp(logCount - total))
	}
	return total
}

// Optimize searches all connected matching orders of p and builds the
// schedule with the lowest estimated cost for a graph of the given shape.
// It is the stand-in for GraphPi's schedule-space search (restriction
// generation is shared with BuildWith). Ties are broken toward the
// default greedy order for stability.
func Optimize(p Pattern, shape GraphShape, induced bool) (*Schedule, error) {
	if !p.Connected() {
		return nil, fmt.Errorf("pattern: %s is disconnected", p.Name())
	}
	n := p.N()
	best := connectedOrder(p)
	bestCost := EstimateCost(p, best, shape)

	perm := make([]int, 0, n)
	used := make([]bool, n)
	var rec func()
	rec = func() {
		if len(perm) == n {
			cost := EstimateCost(p, perm, shape)
			if cost < bestCost-1e-12 {
				bestCost = cost
				best = append([]int(nil), perm...)
			}
			return
		}
		for v := 0; v < n; v++ {
			if used[v] {
				continue
			}
			// Connectivity: every non-first vertex must touch the prefix.
			if len(perm) > 0 {
				connected := false
				for _, u := range perm {
					if p.HasEdge(u, v) {
						connected = true
						break
					}
				}
				if !connected {
					continue
				}
			}
			used[v] = true
			perm = append(perm, v)
			rec()
			perm = perm[:len(perm)-1]
			used[v] = false
		}
	}
	rec()
	return BuildWith(p, BuildOptions{Induced: induced, Order: best})
}

// Parse builds a pattern from a compact edge-list string such as
// "0-1,1-2,2-0" (a triangle). Vertex ids must be 0..n-1 with n inferred
// from the largest id.
func Parse(name, spec string) (Pattern, error) {
	var edges [][2]int
	maxID := -1
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		uv := strings.SplitN(part, "-", 2)
		if len(uv) != 2 {
			return Pattern{}, fmt.Errorf("pattern: bad edge %q (want \"u-v\")", part)
		}
		u, err := strconv.Atoi(strings.TrimSpace(uv[0]))
		if err != nil {
			return Pattern{}, fmt.Errorf("pattern: bad vertex in %q: %v", part, err)
		}
		v, err := strconv.Atoi(strings.TrimSpace(uv[1]))
		if err != nil {
			return Pattern{}, fmt.Errorf("pattern: bad vertex in %q: %v", part, err)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, [2]int{u, v})
	}
	if maxID < 0 {
		return Pattern{}, fmt.Errorf("pattern: empty spec")
	}
	return NewPattern(name, maxID+1, edges)
}
