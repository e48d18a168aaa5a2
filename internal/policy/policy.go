// Package policy implements the task scheduling schemes the paper
// analyzes (§2.2): DFS, BFS, pseudo-DFS (the FINGERS baseline) and
// parallel-DFS. The Shogun scheme itself lives in internal/core; all of
// them implement pe.Policy over the shared task.Node machinery.
package policy

import (
	"shogun/internal/graph"
	"shogun/internal/pe"
	"shogun/internal/task"
)

// RootSource dispenses search-tree root vertices. The accelerator's system
// scheduler implements it; tests use SliceRoots.
type RootSource interface {
	// NextRoot returns the next root to explore, or ok=false when all
	// search trees have been dispatched.
	NextRoot() (v graph.VertexID, ok bool)
}

// SliceRoots is a RootSource over a fixed vertex list.
type SliceRoots struct {
	Vertices []graph.VertexID
	next     int
}

// NextRoot implements RootSource.
func (s *SliceRoots) NextRoot() (graph.VertexID, bool) {
	if s.next >= len(s.Vertices) {
		return 0, false
	}
	v := s.Vertices[s.next]
	s.next++
	return v, true
}

// Remaining reports how many roots have not been dispatched yet.
func (s *SliceRoots) Remaining() int { return len(s.Vertices) - s.next }

// AllRoots returns a SliceRoots over every vertex of g.
func AllRoots(g *graph.Graph) *SliceRoots {
	vs := make([]graph.VertexID, g.NumVertices())
	for i := range vs {
		vs[i] = graph.VertexID(i)
	}
	return &SliceRoots{Vertices: vs}
}

// Tokens implements the paper's per-depth address tokens (§3.2.3):
// preallocated vertex-set slots that tasks of one search depth contend
// for. Token capacity bounds the number of simultaneously materialized
// candidate sets per depth and thus the memory footprint.
//
// Slot ids are globally unique across PEs (slot = local*numPEs + peID) so
// every token maps to a stable, distinct address range; the LIFO free
// list recycles addresses for cache locality, mirroring hardware reuse of
// preallocated sets.
type Tokens struct {
	peID, numPEs int
	caps         []int // per depth (index = stored-set depth, 1..n-1)
	inUse        []int
	free         []int
	next         int
	peak         int
	totalInUse   int
	acquired     int64
	released     int64
}

// NewTokens builds per-depth pools for a schedule with `depths` matching
// positions; capPerDepth is the paper's default (= PE execution width).
func NewTokens(peID, numPEs, depths, capPerDepth int) *Tokens {
	t := &Tokens{peID: peID, numPEs: numPEs}
	t.caps = make([]int, depths)
	t.inUse = make([]int, depths)
	for d := 1; d < depths; d++ {
		t.caps[d] = capPerDepth
	}
	return t
}

// SetCap adjusts one depth's capacity (search-tree merging adds a second
// depth-1 allotment; BFS uses effectively unbounded caps).
func (t *Tokens) SetCap(depth, c int) { t.caps[depth] = c }

// Cap returns one depth's capacity.
func (t *Tokens) Cap(depth int) int { return t.caps[depth] }

// TryAcquire reserves a slot for a set stored at the given depth.
func (t *Tokens) TryAcquire(depth int) (slot int, ok bool) {
	if t.inUse[depth] >= t.caps[depth] {
		return -1, false
	}
	t.inUse[depth]++
	t.totalInUse++
	t.acquired++
	if t.totalInUse > t.peak {
		t.peak = t.totalInUse
	}
	var local int
	if k := len(t.free); k > 0 {
		local = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		local = t.next
		t.next++
	}
	return local*t.numPEs + t.peID, true
}

// Release returns a slot acquired at the given depth.
func (t *Tokens) Release(depth, slot int) {
	if slot < 0 {
		return
	}
	t.inUse[depth]--
	t.totalInUse--
	t.released++
	if t.inUse[depth] < 0 || t.totalInUse < 0 {
		panic("policy: token over-release")
	}
	t.free = append(t.free, slot/t.numPEs)
}

// InUse reports current usage at a depth.
func (t *Tokens) InUse(depth int) int { return t.inUse[depth] }

// Depths reports the number of depth slots (index range of InUse/Cap).
func (t *Tokens) Depths() int { return len(t.caps) }

// InUseByDepth returns a copy of the per-depth occupancy (diagnostic).
func (t *Tokens) InUseByDepth() []int {
	return append([]int(nil), t.inUse...)
}

// TotalInUse reports slots held across all depths (leak check: must be
// zero after a run completes).
func (t *Tokens) TotalInUse() int { return t.totalInUse }

// Peak reports the maximum simultaneous slots held (memory footprint
// proxy, used by the BFS explosion measurements).
func (t *Tokens) Peak() int { return t.peak }

// Acquired reports total token grants (conservation: Acquired ==
// Released + TotalInUse at any instant).
func (t *Tokens) Acquired() int64 { return t.acquired }

// Released reports total token returns.
func (t *Tokens) Released() int64 { return t.released }

// base carries the machinery shared by the baseline policies.
type base struct {
	w      *task.Workload
	tokens *Tokens
	roots  RootSource
}

// LeafParentResult counts aggregated leaf matches for a node at the
// second-to-last position (see DESIGN.md: leaf tasks are processed as a
// batch in the spawn unit; counts are exact). Shared by all policies,
// including the Shogun tree in internal/core.
func LeafParentResult(w *task.Workload, n *task.Node) pe.SpawnResult {
	total := int64(n.SpawnLimit - n.NextCand)
	matches := w.CountLeafMatches(n)
	return pe.SpawnResult{
		Leaves:     int(matches),
		Pruned:     int(total - matches),
		Embeddings: matches,
	}
}

func (b *base) leafParentResult(n *task.Node) pe.SpawnResult {
	return LeafParentResult(b.w, n)
}

// releaseNode frees a completed node's token and buffers, returning its
// parent.
func (b *base) releaseNode(n *task.Node) *task.Node {
	if n.Slot >= 0 && !n.SharedCand {
		b.tokens.Release(n.Depth+1, n.Slot)
	}
	n.Slot = -1
	return b.w.Release(n)
}

// isLeafParent reports whether n sits at the second-to-last position.
func (b *base) isLeafParent(n *task.Node) bool {
	return n.Depth == b.w.LeafDepth()-1
}
