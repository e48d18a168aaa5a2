package policy

import (
	"shogun/internal/pe"
	"shogun/internal/sim"
	"shogun/internal/task"
)

// BFS executes all tasks of one search depth before any of the next
// (§2.2, Fig. 2(b)). It has high parallelism and perfect sibling locality
// but its memory footprint explodes with the frontier: every node of a
// depth must stay materialized until the next depth finishes spawning.
// The paper includes BFS for comparison only (no accelerator adopts it);
// this implementation additionally reports the peak footprint so the
// explosion is measurable.
//
// To keep the scheme honest, BFS token capacities should be set
// effectively unbounded (NewBFS does this) — bounding them would deadlock
// the barrier semantics.
type BFS struct {
	base
	frontier []*task.Node // unexecuted tasks at the current depth
	next     []*task.Node // spawned tasks for the following depth
	inflight int
	treeSeq  int
	// RootsPerWave controls how many search trees are explored
	// simultaneously (all-at-once BFS over the whole graph would be the
	// software-framework behaviour; per-tree BFS is the fair comparison
	// on one PE).
	RootsPerWave int
}

// NewBFS builds a BFS policy. Token caps are raised to "unbounded" so the
// frontier can always materialize.
func NewBFS(w *task.Workload, tokens *Tokens, roots RootSource) *BFS {
	for d := 1; d < w.S.Depth(); d++ {
		tokens.SetCap(d, 1<<30)
	}
	return &BFS{
		base:         base{w: w, tokens: tokens, roots: roots},
		RootsPerWave: 1,
	}
}

// Name implements pe.Policy.
func (b *BFS) Name() string { return "bfs" }

// Next implements pe.Policy.
func (b *BFS) Next(now sim.Time) (*task.Node, int, bool) {
	if len(b.frontier) == 0 && b.inflight == 0 {
		if len(b.next) > 0 {
			// Inter-depth barrier crossed: advance the frontier.
			b.frontier, b.next = b.next, b.frontier[:0]
		} else {
			// Start the next wave of search trees.
			for i := 0; i < b.RootsPerWave; i++ {
				v, ok := b.roots.NextRoot()
				if !ok {
					break
				}
				b.treeSeq++
				b.frontier = append(b.frontier, b.w.NewNode(0, v, nil, b.treeSeq))
			}
		}
	}
	if len(b.frontier) == 0 {
		return nil, -1, false
	}
	n := b.frontier[0]
	slot := -1
	if b.w.NeedsToken(n.Depth) {
		var ok bool
		slot, ok = b.tokens.TryAcquire(n.Depth + 1)
		if !ok {
			return nil, -1, false
		}
	}
	b.frontier = b.frontier[1:]
	b.inflight++
	return n, slot, true
}

// OnComplete implements pe.Policy: spawn all children into the next
// frontier; retire completed subtrees bottom-up.
func (b *BFS) OnComplete(n *task.Node, now sim.Time) pe.SpawnResult {
	b.inflight--
	var res pe.SpawnResult
	if b.isLeafParent(n) {
		res = b.leafParentResult(n)
	} else {
		for {
			v, pruned, ok := b.w.NextChild(n)
			res.Pruned += pruned
			if !ok {
				break
			}
			child := b.w.NewNode(n.Depth+1, v, n, n.TreeID)
			b.next = append(b.next, child)
			res.Spawned++
		}
	}
	// Release completed chains (leaf parents and childless nodes).
	cur := n
	for cur != nil && cur.SubtreeComplete() {
		cur = b.releaseNode(cur)
	}
	return res
}

// Pending implements pe.Policy.
func (b *BFS) Pending() bool {
	return b.inflight > 0 || len(b.frontier) > 0 || len(b.next) > 0
}

// SetConservative implements pe.Policy (BFS only co-runs same-depth
// tasks already).
func (b *BFS) SetConservative(bool) {}
