package shogun

import (
	"io"

	"shogun/internal/gen"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/trace"
)

// GraphShape summarizes input-graph statistics for the schedule
// optimizer.
type GraphShape = pattern.GraphShape

// ShapeOf derives the optimizer's graph summary from a graph.
func ShapeOf(g *Graph) GraphShape {
	return pattern.ShapeOf(g.NumVertices(), g.NumEdges())
}

// OptimizeSchedule searches all connected matching orders of p and
// returns the schedule with the lowest estimated exploration cost for a
// graph of the given shape (the GraphPi-style schedule search). Counts
// are identical to BuildSchedule; only performance differs.
func OptimizeSchedule(p Pattern, shape GraphShape, induced bool) (*Schedule, error) {
	return pattern.Optimize(p, shape, induced)
}

// ParsePattern builds a pattern from a compact edge-list string such as
// "0-1,1-2,2-0".
func ParsePattern(name, spec string) (Pattern, error) { return pattern.Parse(name, spec) }

// ParallelCount mines g with multiple goroutines (0 workers =
// GOMAXPROCS) and returns merged, exact statistics.
func ParallelCount(g *Graph, s *Schedule, workers int) *MineResult {
	return mine.ParallelCount(g, s, workers)
}

// TraceEvent is one completed simulated task.
type TraceEvent = trace.Event

// Tracer consumes simulated task events (see SimConfig.Tracer).
type Tracer = trace.Tracer

// NewJSONLTracer streams task events to w as JSON lines.
func NewJSONLTracer(w io.Writer) Tracer { return trace.NewJSONL(w) }

// TraceSummary aggregates per-depth task latency statistics.
type TraceSummary = trace.Summary

// NewTraceSummary builds an empty latency aggregator usable as a Tracer.
func NewTraceSummary() *TraceSummary { return trace.NewSummary() }

// Timeline collects task events and renders an ASCII per-PE occupancy
// chart (Render).
type Timeline = trace.Timeline

// NewTimeline builds an empty timeline collector usable as a Tracer.
func NewTimeline() *Timeline { return trace.NewTimeline() }

// CensusEntry is one row of a graphlet census.
type CensusEntry = mine.CensusEntry

// Census counts every connected k-vertex graphlet of g (3 ≤ k ≤ 6),
// vertex- and edge-induced, using `workers` goroutines per pattern.
func Census(g *Graph, k, workers int) ([]CensusEntry, error) {
	return mine.Census(g, k, workers)
}

// AllConnectedPatterns enumerates the connected non-isomorphic patterns
// on k vertices (the graphlet catalog).
func AllConnectedPatterns(k int) ([]Pattern, error) { return pattern.AllConnected(k) }

// WriteGraph writes g as a text edge list.
func WriteGraph(g *Graph, w io.Writer) error { return g.WriteEdgeList(w) }

// GenerateChungLu produces a capped power-law random graph with hubs
// spread across many vertices (LiveJournal/Orkut-like at small scale).
func GenerateChungLu(n, m int, alpha float64, maxDeg int, seed int64) *Graph {
	return gen.ChungLu(n, m, alpha, maxDeg, seed)
}
