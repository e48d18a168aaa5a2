// Package shogun is a Go reproduction of "Shogun: A Task Scheduling
// Framework for Graph Mining Accelerators" (Wu et al., ISCA 2023).
//
// It bundles three layers behind one API:
//
//   - a pattern-aware graph mining engine (patterns, GraphPi-style
//     schedules with symmetry breaking, a fast software miner),
//   - a cycle-level simulator of a graph mining accelerator (PE
//     pipelines, set-operation functional units, SPM/L1/L2/DRAM/NoC),
//   - the paper's scheduling schemes — BFS, DFS, pseudo-DFS (FINGERS),
//     parallel-DFS, and the Shogun task tree with conservative-mode
//     locality monitoring, task-tree splitting and search-tree merging.
//
// # Quick start
//
//	g := shogun.GenerateRMAT(1<<14, 80_000, 0.6, 0.15, 0.15, 42)
//	s, _ := shogun.BuildSchedule(shogun.FourClique(), false)
//	fmt.Println("4-cliques:", shogun.Count(g, s))            // software
//	cfg := shogun.DefaultSimConfig(shogun.SchemeShogun)
//	res, _ := shogun.Simulate(g, s, cfg)                      // simulated
//	fmt.Println("cycles:", res.Cycles, "IU util:", res.IUUtil)
//
// Everything is deterministic: generators take explicit seeds and the
// simulator's event order is total.
package shogun

import (
	"context"
	"io"
	"os"
	"runtime"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

// Graph is an immutable undirected graph in CSR form with sorted
// neighbor lists.
type Graph = graph.Graph

// Edge is an undirected edge.
type Edge = graph.Edge

// VertexID identifies a graph vertex.
type VertexID = graph.VertexID

// GraphStats summarizes a graph's structure.
type GraphStats = graph.Stats

// NewGraph builds a simple undirected graph from an edge list; self
// loops and duplicates are dropped.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// ReadGraph parses a whitespace-separated edge list ("u v" per line,
// '#'/'%' comments).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r, 0) }

// LoadGraph reads an edge-list file from disk.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadEdgeList(f, 0)
}

// GenerateRMAT produces a recursive-matrix (skewed, social-network-like)
// random graph. Larger a means heavier skew. Invalid parameters (n < 1,
// m < 0, negative probabilities, a+b+c >= 1) panic at this boundary
// with a precise message; use ValidateRMAT first to get an error
// instead.
func GenerateRMAT(n, m int, a, b, c float64, seed int64) *Graph {
	return gen.RMAT(n, m, a, b, c, seed)
}

// ValidateRMAT reports whether GenerateRMAT's parameters are valid.
func ValidateRMAT(n, m int, a, b, c float64) error { return gen.ValidateRMAT(n, m, a, b, c) }

// GenerateErdosRenyi produces a uniform G(n,m) random graph. Invalid
// parameters (n < 1, m < 0) panic at this boundary; use
// ValidateErdosRenyi first to get an error instead.
func GenerateErdosRenyi(n, m int, seed int64) *Graph { return gen.ErdosRenyi(n, m, seed) }

// ValidateErdosRenyi reports whether GenerateErdosRenyi's parameters
// are valid.
func ValidateErdosRenyi(n, m int) error { return gen.ValidateErdosRenyi(n, m) }

// GenerateBarabasiAlbert produces a preferential-attachment graph with k
// edges per new vertex. Invalid parameters (n < 1, k < 1) panic at this
// boundary; use ValidateBarabasiAlbert first to get an error instead.
func GenerateBarabasiAlbert(n, k int, seed int64) *Graph { return gen.BarabasiAlbert(n, k, seed) }

// ValidateBarabasiAlbert reports whether GenerateBarabasiAlbert's
// parameters are valid.
func ValidateBarabasiAlbert(n, k int) error { return gen.ValidateBarabasiAlbert(n, k) }

// GeneratePowerLawCluster produces a Holme–Kim power-law graph with
// triangle closure probability p (collaboration-network-like). Invalid
// parameters (n < 1, k < 1, p outside [0, 1]) panic at this boundary;
// use ValidatePowerLawCluster first to get an error instead.
func GeneratePowerLawCluster(n, k int, p float64, seed int64) *Graph {
	return gen.PowerLawCluster(n, k, p, seed)
}

// ValidatePowerLawCluster reports whether GeneratePowerLawCluster's
// parameters are valid.
func ValidatePowerLawCluster(n, k int, p float64) error { return gen.ValidatePowerLawCluster(n, k, p) }

// GenerateNearRegular produces a low-degree-variance random graph
// (citation-network-like). Invalid parameters (n < 1, k < 0) panic at
// this boundary; use ValidateNearRegular first to get an error instead.
func GenerateNearRegular(n, k int, seed int64) *Graph { return gen.NearRegular(n, k, seed) }

// ValidateNearRegular reports whether GenerateNearRegular's parameters
// are valid.
func ValidateNearRegular(n, k int) error { return gen.ValidateNearRegular(n, k) }

// Dataset returns one of the six named dataset analogues standing in for
// the paper's Table 4 graphs: "wi", "as", "yo", "pa", "lj", "or" (see
// DESIGN.md for the substitution rationale). Graphs are cached.
func Dataset(name string) (*Graph, error) { return datasets.Get(name) }

// DatasetNames lists the analogue names in the paper's order.
func DatasetNames() []string { return datasets.Names() }

// Pattern is a small connected graph to search for.
type Pattern = pattern.Pattern

// Schedule is an executable pattern-aware mining schedule (matching
// order, per-depth set operations, symmetry-breaking restrictions).
type Schedule = pattern.Schedule

// The paper's evaluated patterns.

// Triangle returns the 3-clique pattern (tc).
func Triangle() Pattern { return pattern.Triangle() }

// FourClique returns the 4-clique pattern (4cl).
func FourClique() Pattern { return pattern.FourClique() }

// FiveClique returns the 5-clique pattern (5cl).
func FiveClique() Pattern { return pattern.FiveClique() }

// TailedTriangle returns the tailed-triangle pattern (tt).
func TailedTriangle() Pattern { return pattern.TailedTriangle() }

// Diamond returns the diamond pattern (dia).
func Diamond() Pattern { return pattern.Diamond() }

// FourCycle returns the 4-cycle pattern (4cyc).
func FourCycle() Pattern { return pattern.FourCycle() }

// Clique returns the k-clique pattern.
func Clique(k int) Pattern { return pattern.CliqueN(k) }

// NewPattern builds a custom pattern from an edge list over [0, n).
func NewPattern(name string, n int, edges [][2]int) (Pattern, error) {
	return pattern.NewPattern(name, n, edges)
}

// PatternByName resolves the paper's names: tc, tt, 4cl, 5cl, dia, 4cyc
// (an _e/_v suffix is accepted and stripped).
func PatternByName(name string) (Pattern, error) { return pattern.ByName(name) }

// BuildSchedule generates a mining schedule for p. induced selects
// vertex-induced semantics (pattern non-edges must be absent).
func BuildSchedule(p Pattern, induced bool) (*Schedule, error) {
	return pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
}

// MineResult carries software-mining statistics (task counts per depth,
// intermediate-data locality metrics, exact embedding count).
type MineResult = mine.Result

// Count mines g for schedule s in software and returns the number of
// unique embeddings.
func Count(g *Graph, s *Schedule) int64 { return mine.Count(g, s) }

// CountContext mines g in parallel (GOMAXPROCS workers) under a
// context: workers observe ctx between root chunks, so a cancelled
// context stops the mine promptly with an error wrapping
// ErrSimCancelled. A panic inside the miner is contained and returned
// as an *InvariantError.
func CountContext(ctx context.Context, g *Graph, s *Schedule) (int64, error) {
	r, err := mine.ParallelCountContext(ctx, g, s, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	return r.Embeddings, nil
}

// Mine runs the software miner and returns full statistics.
func Mine(g *Graph, s *Schedule) *MineResult { return mine.NewMiner(g, s).Run() }

// MineEach mines g and invokes visit once per embedding (matched
// vertices by position; do not retain the slice).
func MineEach(g *Graph, s *Schedule, visit func(m []VertexID)) *MineResult {
	m := mine.NewMiner(g, s)
	m.SetVisitor(mine.Visitor(visit))
	return m.Run()
}
