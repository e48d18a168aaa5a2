package policy

import (
	"shogun/internal/pe"
	"shogun/internal/sim"
	"shogun/internal/task"
)

// lane is one serial depth-first exploration: at most one task in flight,
// children prioritized over siblings, siblings drawn via extend when a
// subtree completes. DFS uses one lane; parallel-DFS uses `width`
// independent lanes (§2.3, Fig. 3).
type lane struct {
	ready    *task.Node // next task to execute, if any
	inflight bool
	alive    int // nodes of this lane's tree still allocated
	treeID   int
}

// DFS walks `lanes` independent search trees on one PE, each depth
// first. With one lane it is the depth-first scheme most accelerators
// use (§2.2): minimal memory footprint, one execution slot used, poor
// parallelism. With `width` lanes it is parallel-DFS, the extreme
// out-of-order baseline of Fig. 3: maximal slot usage but no locality
// between co-running tasks and no locality monitoring, which is exactly
// the failure mode Fig. 3(b) and Fig. 14 demonstrate.
type DFS struct {
	base
	name    string
	lanes   []lane
	nextTID int
}

// NewDFS builds the single-lane DFS policy.
func NewDFS(w *task.Workload, tokens *Tokens, roots RootSource) *DFS {
	return newDFS("dfs", w, tokens, roots, 1)
}

// NewParallelDFS builds a parallel-DFS policy with the given lane count
// (the task execution width).
func NewParallelDFS(w *task.Workload, tokens *Tokens, roots RootSource, lanes int) *DFS {
	return newDFS("parallel-dfs", w, tokens, roots, lanes)
}

func newDFS(name string, w *task.Workload, tokens *Tokens, roots RootSource, lanes int) *DFS {
	return &DFS{
		base:  base{w: w, tokens: tokens, roots: roots},
		name:  name,
		lanes: make([]lane, lanes),
	}
}

// Name implements pe.Policy.
func (d *DFS) Name() string { return d.name }

// Next implements pe.Policy: it finds a runnable task across lanes,
// acquiring its output token.
func (d *DFS) Next(now sim.Time) (*task.Node, int, bool) {
	for i := range d.lanes {
		l := &d.lanes[i]
		if l.inflight {
			continue
		}
		if l.ready == nil && l.alive == 0 {
			// Lane is empty: pull a fresh search tree.
			v, ok := d.roots.NextRoot()
			if !ok {
				continue
			}
			d.nextTID++
			l.treeID = d.nextTID
			l.ready = d.w.NewNode(0, v, nil, l.treeID)
			l.alive = 1
		}
		if l.ready == nil {
			continue
		}
		slot := -1
		if d.w.NeedsToken(l.ready.Depth) {
			var ok bool
			slot, ok = d.tokens.TryAcquire(l.ready.Depth + 1)
			if !ok {
				continue
			}
		}
		n := l.ready
		l.ready = nil
		l.inflight = true
		return n, slot, true
	}
	return nil, -1, false
}

// OnComplete implements pe.Policy: it advances the lane owning n —
// descend into the first child, or walk up releasing completed subtrees
// and extend at the shallowest ancestor with unexplored candidates.
func (d *DFS) OnComplete(n *task.Node, now sim.Time) pe.SpawnResult {
	l := &d.lanes[d.laneOf(n)]
	l.inflight = false

	var res pe.SpawnResult
	if d.isLeafParent(n) {
		res = d.leafParentResult(n)
	}

	cur := n
	for {
		if cur.HasMoreCands() {
			v, pruned, ok := d.w.NextChild(cur)
			res.Pruned += pruned
			if ok {
				child := d.w.NewNode(cur.Depth+1, v, cur, cur.TreeID)
				l.alive++
				l.ready = child
				res.Spawned++
				return res
			}
		}
		if !cur.SubtreeComplete() {
			// Should not happen in a serial lane: children always
			// finish before the parent advances.
			panic("policy: dfs lane found incomplete subtree with no work")
		}
		parent := d.releaseNode(cur)
		l.alive--
		if parent == nil {
			return res // tree finished; Next will pull a new root
		}
		cur = parent
	}
}

// laneOf locates the lane whose in-flight task is n.
func (d *DFS) laneOf(n *task.Node) int {
	for i := range d.lanes {
		if d.lanes[i].inflight && d.lanes[i].treeID == n.TreeID {
			return i
		}
	}
	panic("policy: completed task belongs to no lane")
}

// Pending implements pe.Policy.
func (d *DFS) Pending() bool {
	for i := range d.lanes {
		if d.lanes[i].inflight || d.lanes[i].ready != nil || d.lanes[i].alive > 0 {
			return true
		}
	}
	return false
}

// SetConservative implements pe.Policy. It has no effect: one lane never
// co-runs non-sibling tasks, and parallel-DFS deliberately ignores the
// monitor (that is its weakness).
func (d *DFS) SetConservative(bool) {}
