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
func New(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if n > math.MaxInt32 {
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
	// Sort each adjacency list and remove duplicates in place.
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

// Edges returns the edge list (u < v) of the graph. Allocates.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if u > VertexID(v) {
				out = append(out, Edge{VertexID(v), u})
			}
		}
	}
	return out
}

// DegreeOrder returns vertices sorted by ascending (degree, id). Mining
// systems commonly relabel graphs into this order so symmetry-breaking
// comparisons prune high-degree roots early.
func (g *Graph) DegreeOrder() []VertexID {
	n := g.NumVertices()
	order := make([]VertexID, n)
	for i := range order {
		order[i] = VertexID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	return order
}

// Relabel returns a new graph where vertex order[i] of g becomes vertex i.
// order must be a permutation of [0, n).
func (g *Graph) Relabel(order []VertexID) (*Graph, error) {
	n := g.NumVertices()
	if len(order) != n {
		return nil, fmt.Errorf("graph: relabel permutation has %d entries, want %d", len(order), n)
	}
	inv := make([]VertexID, n)
	seen := make([]bool, n)
	for newID, oldID := range order {
		if oldID < 0 || int(oldID) >= n || seen[oldID] {
			return nil, fmt.Errorf("graph: relabel order is not a permutation")
		}
		seen[oldID] = true
		inv[oldID] = VertexID(newID)
	}
	edges := make([]Edge, 0, g.NumEdges())
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if u > VertexID(v) {
				edges = append(edges, Edge{inv[v], inv[u]})
			}
		}
	}
	return New(n, edges)
}
