// Package graph provides an immutable compressed-sparse-row (CSR) graph
// representation used throughout the simulator and the software miner.
//
// Graphs are simple and undirected: the builder removes self loops and
// duplicate edges and stores each edge in both directions. Neighbor lists
// are sorted by ascending vertex id, which the pattern-aware mining
// algorithms rely on for merge-based set operations and symmetry breaking
// (see Algorithm 1 of the Shogun paper).
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// VertexID identifies a vertex. Graphs in this repository are bounded by
// int32 so neighbor lists pack two vertices per 8 bytes and a 64-byte cache
// line holds 16 ids, matching the paper's cost accounting (Table 2).
type VertexID = int32

// Edge is an undirected edge between two vertices.
type Edge struct {
	U, V VertexID
}

// Graph is an immutable undirected graph in CSR form.
//
// The zero value is an empty graph with no vertices.
type Graph struct {
	offsets   []int64 // len = n+1; neighbor range of v is [offsets[v], offsets[v+1])
	neighbors []VertexID
	maxDegree int

	// hub caches the lazily built, shared HubIndex (see hubindex.go).
	// CSR fields above stay immutable; only this cache is guarded.
	hubMu    sync.Mutex
	hub      *HubIndex
	hubBuilt bool
	// lower caches the lazily built, shared LowerSplit.
	lowerOnce sync.Once
	lower     []int32
	// id is the graph's identity (see ID), 0 until first asked for.
	id atomic.Uint64
}

// lastID is the most recent identity ID handed out.
var lastID atomic.Uint64

// ID reports an identity that no other Graph in the process shares,
// assigned on first call. Unlike the graph's address, which a later
// graph may reuse once this one is garbage-collected, it can key caches
// that outlive the graph.
func (g *Graph) ID() uint64 {
	if id := g.id.Load(); id != 0 {
		return id
	}
	g.id.CompareAndSwap(0, lastID.Add(1))
	return g.id.Load()
}

// New builds a Graph from an edge list. Self loops and duplicate edges are
// dropped. n is the number of vertices; all edge endpoints must lie in
// [0, n).
//
// The build is two counting scatters, with no comparison sort. The first
// groups each edge's two directions by their head: group u lists every
// tail s of an edge (s, u), in input order. The second walks the groups
// in ascending u and appends u to row s for each s in group u, so every
// row fills in ascending neighbour order. Duplicates are then adjacent
// and are dropped in place. Besides the edges, the build allocates
// 16(n+1) + 16m bytes for m edges: the offsets and one cursor per
// vertex, the grouped array and the rows.
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds int32 range", n)
	}
	// offsets[v+1] counts v's directions, then prefix sums make
	// [offsets[v], offsets[v+1]) both v's group and v's row.
	offsets := make([]int64, n+1)
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U == e.V {
			continue
		}
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	cursor := make([]int64, n)
	copy(cursor, offsets[:n])
	grouped := make([]VertexID, offsets[n])
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		grouped[cursor[e.V]] = e.U
		cursor[e.V]++
		grouped[cursor[e.U]] = e.V
		cursor[e.U]++
	}
	copy(cursor, offsets[:n])
	adj := make([]VertexID, offsets[n])
	for u := 0; u < n; u++ {
		for _, s := range grouped[offsets[u]:offsets[u+1]] {
			adj[cursor[s]] = VertexID(u)
			cursor[s]++
		}
	}
	// Drop duplicates in place; offsets[v+1] is rewritten only after row
	// v has been read, and lo keeps row v's old start.
	maxDeg := 0
	write, lo := int64(0), int64(0)
	for v := 1; v <= n; v++ {
		start, hi := write, offsets[v]
		prev := VertexID(-1)
		for _, u := range adj[lo:hi] {
			if u != prev {
				adj[write] = u
				write++
				prev = u
			}
		}
		offsets[v], lo = write, hi
		if d := int(write - start); d > maxDeg {
			maxDeg = d
		}
	}
	return &Graph{offsets: offsets, neighbors: adj[:write:write], maxDegree: maxDeg}, nil
}

// MustNew is like New but panics on error. Intended for tests and
// generators whose inputs are known valid.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NumVertices reports the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int64 {
	if len(g.offsets) == 0 {
		return 0
	}
	return g.offsets[len(g.offsets)-1] / 2
}

// Degree reports the degree of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree reports the largest degree in the graph.
func (g *Graph) MaxDegree() int { return g.maxDegree }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// LowerSplit returns the graph's shared lower-neighbour split: entry v is
// |{u ∈ N(v) : u < v}|, so Neighbors(v)[:LowerSplit()[v]] is the part of
// v's adjacency below v, the prefix a symmetry-breaking bound of v keeps.
// It is built on first use (one binary search per vertex) and shared by
// every caller, like HubIndex; the slice must not be modified.
func (g *Graph) LowerSplit() []int32 {
	g.lowerOnce.Do(func() {
		n := g.NumVertices()
		g.lower = make([]int32, n)
		for v := 0; v < n; v++ {
			nb := g.Neighbors(VertexID(v))
			g.lower[v] = int32(sort.Search(len(nb), func(i int) bool { return nb[i] >= VertexID(v) }))
		}
	})
	return g.lower
}

// NeighborOffset reports the index into the flat neighbor array where v's
// adjacency list begins. The simulator uses it to synthesize memory
// addresses for CSR accesses.
func (g *Graph) NeighborOffset(v VertexID) int64 { return g.offsets[v] }

// HasEdge reports whether u and v are adjacent, via binary search on the
// smaller adjacency list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if u == v {
		return false
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// Stats summarizes structural properties that drive workload behaviour in
// the evaluation: size, average degree, and degree skew.
type Stats struct {
	Vertices     int
	Edges        int64
	MaxDegree    int
	AvgDegree    float64
	DegreeStdDev float64
	// Skewness is the standardized third moment of the degree
	// distribution; heavy-tailed graphs like the Youtube analogue have
	// large positive skewness.
	Skewness float64
}

// ComputeStats computes summary statistics for g.
func (g *Graph) ComputeStats() Stats {
	n := g.NumVertices()
	s := Stats{Vertices: n, Edges: g.NumEdges(), MaxDegree: g.maxDegree}
	if n == 0 {
		return s
	}
	var sum, sum2, sum3 float64
	for v := 0; v < n; v++ {
		d := float64(g.Degree(VertexID(v)))
		sum += d
		sum2 += d * d
		sum3 += d * d * d
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	s.AvgDegree = mean
	s.DegreeStdDev = math.Sqrt(variance)
	if variance > 0 {
		m3 := sum3/float64(n) - 3*mean*sum2/float64(n) + 2*mean*mean*mean
		s.Skewness = m3 / math.Pow(variance, 1.5)
	}
	return s
}
