// Package core implements the paper's primary contribution: the Shogun
// task tree (§3.2) — a bunch-structured task SPM with an FSM and a
// scheduler that decouple task generation from task execution, enabling
// locality-aware out-of-order scheduling — plus the two accelerator
// optimizations built on it: task tree splitting for load balance (§4.1)
// and search tree merging (§4.2).
package core

import (
	"fmt"

	"shogun/internal/graph"
	"shogun/internal/pe"
	"shogun/internal/policy"
	"shogun/internal/sim"
	"shogun/internal/task"
)

// State is a task-tree entry state. The simulator models the paper's
// transient memory-access states (Wait_Spawn_Addr, Wait_Vertex, ...)
// inside the PE pipeline's timing, so entries here carry the four basic
// states of Fig. 4(b) plus Quiesced (§4.2).
type State int

const (
	// Ready: generated, waiting to be selected by the scheduler.
	Ready State = iota
	// Executing: in the PE pipeline.
	Executing
	// Resting: spawned children; its candidate set may still be read.
	Resting
	// Quiesced: frozen by search-tree-merging recovery.
	Quiesced
)

func (s State) String() string {
	switch s {
	case Ready:
		return "Ready"
	case Executing:
		return "Executing"
	case Resting:
		return "Resting"
	case Quiesced:
		return "Quiesced"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// TreeConfig sizes the task tree (Table 3: 4 bunches/depth × 8 entries,
// 2 bunches at depth 0 with 1 entry and 2 at depth 1 with 8, 178 entries
// total at a maximum depth of 6).
type TreeConfig struct {
	BunchesPerDepth int
	EntriesPerBunch int
	Depth0Bunches   int
	Depth1Bunches   int
	// MaxTrees bounds merged search trees per PE (2 with merging).
	MaxTrees int
	// NoSiblingPreference disables the Fig. 7 sibling-first selection
	// (ablation knob): the scheduler always round-robins over bunches.
	NoSiblingPreference bool
}

// DefaultTreeConfig mirrors Table 3.
func DefaultTreeConfig(width int) TreeConfig {
	return TreeConfig{
		BunchesPerDepth: 4,
		EntriesPerBunch: width,
		Depth0Bunches:   2,
		Depth1Bunches:   2,
		MaxTrees:        1, // merging raises it to 2
	}
}

// TotalEntries reports the task-SPM entry count for a given pattern depth
// (178 for the default config at depth 7).
func (c TreeConfig) TotalEntries(depths int) int {
	total := c.Depth0Bunches * 1
	if depths > 1 {
		total += c.Depth1Bunches * c.EntriesPerBunch
	}
	for d := 2; d < depths; d++ {
		total += c.BunchesPerDepth * c.EntriesPerBunch
	}
	return total
}

// entry is one task-SPM slot.
type entry struct {
	state State
	node  *task.Node
}

// bunch groups sibling entries spawned from one parent (Fig. 5).
type bunch struct {
	depth   int
	parent  *task.Node
	entries []entry
	used    int // entries holding a live node
	treeID  int
}

// treeState tracks one merged search tree.
type treeState struct {
	id       int
	root     graph.VertexID
	quiesced bool
	maxDepth int
	liveWork int // entries + resting nodes belonging to the tree
}

// Tree is the Shogun task tree; it implements pe.Policy.
type Tree struct {
	w      *task.Workload
	tokens *policy.Tokens
	roots  policy.RootSource
	cfg    TreeConfig

	// bunches[d] holds the allocated bunches at depth d.
	bunches [][]*bunch
	// pendingSpawn queues Resting parents waiting for a free bunch at
	// their child depth.
	pendingSpawn [][]*task.Node

	lastBunch    *bunch // sibling preference (Fig. 7 step 1)
	rrDepth      int    // round-robin cursor for non-sibling selection
	conservative bool
	mergeAllowed bool
	executing    int

	// trees holds the live search trees in feed order: one, or two
	// while merging (§4.2); each owns a depth-0 bunch, so Depth0Bunches
	// bounds the slice.
	trees   []*treeState
	treeSeq int

	// Recycled bunch and tree-state records: the tree turns over one
	// bunch per parent and one state per root, so reuse keeps the
	// steady-state policy allocation-free.
	bunchFree []*bunch
	stateFree []*treeState

	// deferred spawn-unit work to charge on the next completion (bunch
	// became available asynchronously).
	deferredSpawn  int
	deferredPruned int

	// Stats
	MergeFeeds      int64
	SpawnedBunches  int64
	Extends         int64
	NonSiblingRuns  int64
	SiblingRuns     int64
	DeferredSpawns  int64
	QuiesceEvents   int64
	SplitsReceived  int64
	SplitsPerformed int64

	// FSM transition counters (Fig. 4(b) census, exported to metrics):
	// every Ready entry the scheduler promoted to Executing, every
	// completion that parked its node Resting to spawn children, and
	// every entry freed on retirement. Conservation: ReadyToExecuting
	// equals the PE's executed-task count, and RetiredEntries equals the
	// nodes the tree ever held (executed + adopted splits).
	ReadyToExecuting   int64
	ExecutingToResting int64
	RetiredEntries     int64
}

var _ pe.Policy = (*Tree)(nil)

// NewTree builds the Shogun policy for one PE.
func NewTree(w *task.Workload, tokens *policy.Tokens, roots policy.RootSource, cfg TreeConfig) *Tree {
	depths := w.S.Depth()
	t := &Tree{
		w:            w,
		tokens:       tokens,
		roots:        roots,
		cfg:          cfg,
		bunches:      make([][]*bunch, depths),
		pendingSpawn: make([][]*task.Node, depths),
	}
	return t
}

// Name implements pe.Policy.
func (t *Tree) Name() string { return "shogun" }

// bunchCap returns the bunch quota at a depth.
func (t *Tree) bunchCap(depth int) int {
	switch depth {
	case 0:
		return t.cfg.Depth0Bunches
	case 1:
		return t.cfg.Depth1Bunches
	default:
		return t.cfg.BunchesPerDepth
	}
}

func (t *Tree) entriesPerBunch(depth int) int {
	if depth == 0 {
		return 1
	}
	return t.cfg.EntriesPerBunch
}

// allocBunch reuses a recycled bunch when one is free.
func (t *Tree) allocBunch(depth int, parent *task.Node, treeID int) *bunch {
	if k := len(t.bunchFree); k > 0 {
		b := t.bunchFree[k-1]
		t.bunchFree = t.bunchFree[:k-1]
		b.depth, b.parent, b.treeID = depth, parent, treeID
		b.entries = b.entries[:0]
		b.used = 0
		return b
	}
	return &bunch{depth: depth, parent: parent, treeID: treeID,
		entries: make([]entry, 0, t.entriesPerBunch(depth))}
}

// freeBunch parks a bunch removed from its depth list for reuse.
func (t *Tree) freeBunch(b *bunch) {
	b.parent = nil
	t.bunchFree = append(t.bunchFree, b)
}

// allocState reuses a recycled treeState when one is free.
func (t *Tree) allocState(id int, root graph.VertexID) *treeState {
	if k := len(t.stateFree); k > 0 {
		ts := t.stateFree[k-1]
		t.stateFree = t.stateFree[:k-1]
		*ts = treeState{id: id, root: root}
		return ts
	}
	return &treeState{id: id, root: root}
}

// activeTrees counts non-finished merged trees.
func (t *Tree) activeTrees() int { return len(t.trees) }

// liveTree returns the live tree with the given id, or nil.
func (t *Tree) liveTree(id int) *treeState {
	for _, ts := range t.trees {
		if ts.id == id {
			return ts
		}
	}
	return nil
}

// CanMerge reports whether the tree can host another search tree.
func (t *Tree) CanMerge() bool {
	return t.activeTrees() < t.cfg.MaxTrees && len(t.bunches[0]) < t.bunchCap(0)
}

// SetMergeAllowed is the accelerator's merge decision (§4.2): when true
// and capacity exists, the tree pulls a second root. The three conditions
// (low FU utilization, no L1 thrashing, memory bandwidth headroom) are
// evaluated by the accelerator from the PE's monitor samples.
func (t *Tree) SetMergeAllowed(on bool) { t.mergeAllowed = on }

// feedRoot pulls one root from the source into a fresh depth-0 bunch.
func (t *Tree) feedRoot() bool {
	if len(t.bunches[0]) >= t.bunchCap(0) {
		return false
	}
	v, ok := t.roots.NextRoot()
	if !ok {
		return false
	}
	if t.activeTrees() >= 1 {
		t.MergeFeeds++
	}
	t.treeSeq++
	ts := t.allocState(t.treeSeq, v)
	t.trees = append(t.trees, ts)
	root := t.w.NewNode(0, v, nil, ts.id)
	b := t.allocBunch(0, nil, ts.id)
	b.entries = append(b.entries, entry{state: Ready, node: root})
	b.used = 1
	ts.liveWork++
	t.bunches[0] = append(t.bunches[0], b)
	return true
}

// AdoptSplit installs a received split subtree (§4.1): a copy of a remote
// PE's depth-0 root whose spawn window is the carved range [lo, hi) of
// cand. The caller models the transfer and the L1 install; slot is a
// local token for the transferred candidate set. On success the adopted
// root takes cand over as its candidate set, and releasing the root
// returns it to the candidate pool. So cand must be a snapshot from the
// machine's pool (task.Workload.CopyCand): a buffer from anywhere else
// would enter the pool without the capacity set kernels rely on. When
// AdoptSplit reports false the caller still owns cand.
func (t *Tree) AdoptSplit(root graph.VertexID, cand []graph.VertexID, lo, hi, slot int) bool {
	if len(t.bunches[0]) >= t.bunchCap(0) || t.activeTrees() >= t.cfg.MaxTrees {
		return false
	}
	t.treeSeq++
	ts := t.allocState(t.treeSeq, root)
	t.trees = append(t.trees, ts)
	n := t.w.NewNode(0, root, nil, ts.id)
	n.Executed = true
	n.Cand = cand
	n.NextCand, n.SpawnLimit = lo, hi
	n.Slot = slot
	b := t.allocBunch(0, nil, ts.id)
	// The adopted root has already executed remotely: it enters Resting
	// and immediately wants to spawn.
	b.entries = append(b.entries, entry{state: Resting, node: n})
	b.used = 1
	ts.liveWork++
	t.bunches[0] = append(t.bunches[0], b)
	t.SplitsReceived++
	t.requestSpawn(n)
	return true
}

// requestSpawn spawns a bunch for a Resting parent, or queues it until a
// bunch at the child depth frees. Spawn-unit work is charged to the next
// completing task (the hardware's spawn unit does it asynchronously).
func (t *Tree) requestSpawn(n *task.Node) {
	var res pe.SpawnResult
	if t.spawnBunch(n, &res) {
		t.deferredSpawn += res.Spawned
		t.deferredPruned += res.Pruned
	} else {
		t.pendingSpawn[n.Depth+1] = append(t.pendingSpawn[n.Depth+1], n)
		t.DeferredSpawns++
	}
}

// Next implements pe.Policy — the Fig. 7 scheduler: prefer a Ready
// sibling of the last selected task; otherwise, unless conservative mode
// forbids it, pick a Ready task from another bunch round-robin; gate on
// an address token for the task's output depth.
func (t *Tree) Next(now sim.Time) (*task.Node, int, bool) {
	if t.activeTrees() == 0 || (t.mergeAllowed && t.CanMerge()) {
		// Tree empty, or merging approved (§4.2): pull a root.
		if !t.feedRoot() && t.activeTrees() == 0 {
			return nil, -1, false
		}
	}

	// 1. Sibling preference.
	if t.lastBunch != nil && !t.cfg.NoSiblingPreference {
		if n, slot, ok := t.takeReady(t.lastBunch); ok {
			t.SiblingRuns++
			return n, slot, true
		}
	}
	// 2. Non-sibling selection, unless conservative mode forbids
	// co-running non-siblings with in-flight tasks.
	if t.conservative && t.executing > 0 {
		return nil, -1, false
	}
	depths := len(t.bunches)
	for i := 0; i < depths; i++ {
		d := (t.rrDepth + i) % depths
		for _, b := range t.bunches[d] {
			if b == t.lastBunch && !t.cfg.NoSiblingPreference {
				continue // already scanned by the sibling-first step
			}
			if n, slot, ok := t.takeReady(b); ok {
				t.rrDepth = (d + 1) % depths
				t.lastBunch = b
				t.NonSiblingRuns++
				return n, slot, true
			}
		}
	}
	return nil, -1, false
}

// takeReady selects a Ready entry from b, acquiring its output token.
func (t *Tree) takeReady(b *bunch) (*task.Node, int, bool) {
	if ts := t.liveTree(b.treeID); ts != nil && ts.quiesced {
		return nil, -1, false
	}
	for i := range b.entries {
		e := &b.entries[i]
		if e.node == nil || e.state != Ready {
			continue
		}
		slot := -1
		if t.w.NeedsToken(e.node.Depth) {
			var ok bool
			slot, ok = t.tokens.TryAcquire(e.node.Depth + 1)
			if !ok {
				return nil, -1, false // token pressure: stall this depth
			}
		}
		e.state = Executing
		t.executing++
		t.ReadyToExecuting++
		t.lastBunch = b
		return e.node, slot, true
	}
	return nil, -1, false
}

// OnComplete implements pe.Policy: the spawning / extending / pruning
// processes of Fig. 6, without inter-depth barriers — the completing task
// proceeds immediately regardless of its siblings.
func (t *Tree) OnComplete(n *task.Node, now sim.Time) pe.SpawnResult {
	t.executing--
	var res pe.SpawnResult
	res.Spawned += t.deferredSpawn
	res.Pruned += t.deferredPruned
	t.deferredSpawn, t.deferredPruned = 0, 0

	b := t.findBunch(n)
	if t.isLeafParent(n) {
		lr := policy.LeafParentResult(t.w, n)
		res.Leaves += lr.Leaves
		res.Pruned += lr.Pruned
		res.Embeddings += lr.Embeddings
		t.retireEntry(b, n, &res)
		return res
	}
	if n.HasMoreCands() {
		// Task spawning: parent → Resting, children into a fresh bunch.
		t.setState(b, n, Resting)
		t.ExecutingToResting++
		t.trackDepth(n)
		if !t.spawnBunch(n, &res) {
			t.pendingSpawn[n.Depth+1] = append(t.pendingSpawn[n.Depth+1], n)
			t.DeferredSpawns++
		}
		return res
	}
	// No candidates: the entry extends or the subtree retires.
	t.retireEntry(b, n, &res)
	return res
}

func (t *Tree) isLeafParent(n *task.Node) bool { return n.Depth == t.w.LeafDepth()-1 }

func (t *Tree) trackDepth(n *task.Node) {
	if ts := t.liveTree(n.TreeID); ts != nil && n.Depth > ts.maxDepth {
		ts.maxDepth = n.Depth
	}
}

// spawnBunch materializes up to one bunch of children of n, if a bunch at
// the child depth is free.
func (t *Tree) spawnBunch(n *task.Node, res *pe.SpawnResult) bool {
	d := n.Depth + 1
	if len(t.bunches[d]) >= t.bunchCap(d) {
		return false
	}
	nb := t.allocBunch(d, n, n.TreeID)
	for len(nb.entries) < t.entriesPerBunch(d) {
		v, pruned, ok := t.w.NextChild(n)
		res.Pruned += pruned
		if !ok {
			break
		}
		child := t.w.NewNode(d, v, n, n.TreeID)
		nb.entries = append(nb.entries, entry{state: Ready, node: child})
		res.Spawned++
	}
	nb.used = len(nb.entries)
	if nb.used == 0 {
		// Everything pruned: nothing to place; the caller retires n.
		t.retireEntry(t.findBunch(n), n, res)
		return true
	}
	if ts := t.liveTree(n.TreeID); ts != nil {
		ts.liveWork += nb.used
	}
	t.bunches[d] = append(t.bunches[d], nb)
	t.SpawnedBunches++
	return true
}

// retireEntry handles a node whose own work is done: extend the entry
// with the parent's next candidate, or free it and propagate completion
// upward (the light-blue pruning path of Fig. 6).
func (t *Tree) retireEntry(b *bunch, n *task.Node, res *pe.SpawnResult) {
	for {
		parent := n.Parent
		if !n.SubtreeComplete() {
			// Children still running: leave the node Resting; the last
			// child retiring will re-enter here via the parent chain.
			t.setState(b, n, Resting)
			return
		}
		t.freeEntry(b, n)
		if n.Slot >= 0 && !n.SharedCand {
			t.tokens.Release(n.Depth+1, n.Slot)
		}
		n.Slot = -1
		t.w.Release(n)

		if parent == nil {
			// A search tree finished.
			t.finishTree(b.treeID)
			return
		}
		// Task extending: reuse the freed entry for the parent's next
		// candidate (Fig. 5 right: explore vertex 5 in place).
		if parent.HasMoreCands() {
			v, pruned, ok := t.w.NextChild(parent)
			res.Pruned += pruned
			if ok {
				sibling := t.w.NewNode(n.Depth, v, parent, parent.TreeID)
				t.placeEntry(b, sibling)
				if ts := t.liveTree(parent.TreeID); ts != nil {
					ts.liveWork++
				}
				res.Spawned++
				t.Extends++
				return
			}
		}
		// Parent exhausted its candidates. If the whole bunch is idle,
		// recycle it and continue retiring up the chain.
		if b.used > 0 || parent.Live > 0 {
			return // siblings still active; they will continue the walk
		}
		t.recycleBunch(b)
		n = parent
		b = t.findBunch(n)
	}
}

// finishTree drops a finished tree's bookkeeping, recycles its depth-0
// bunch and wakes a quiesced partner (§4.2 recovery).
func (t *Tree) finishTree(treeID int) {
	for i, ts := range t.trees {
		if ts.id == treeID {
			t.stateFree = append(t.stateFree, ts)
			t.trees = append(t.trees[:i], t.trees[i+1:]...)
			break
		}
	}
	for i, b := range t.bunches[0] {
		if b.treeID == treeID && b.used == 0 {
			t.bunches[0] = append(t.bunches[0][:i], t.bunches[0][i+1:]...)
			t.freeBunch(b)
			break
		}
	}
	if t.lastBunch != nil && t.lastBunch.treeID == treeID {
		t.lastBunch = nil
	}
	t.wakeQuiesced()
}

// recycleBunch removes an empty bunch from its depth, making room for
// pending spawners (which are served FIFO).
func (t *Tree) recycleBunch(b *bunch) {
	list := t.bunches[b.depth]
	for i, x := range list {
		if x == b {
			t.bunches[b.depth] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if t.lastBunch == b {
		t.lastBunch = nil
	}
	depth := b.depth
	t.freeBunch(b) // b may be reused by the spawn below; use depth from here
	// Serve one pending spawner at this depth.
	if q := t.pendingSpawn[depth]; len(q) > 0 {
		// Pop in place, so the queue's array is reused by later pushes.
		parent := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		t.pendingSpawn[depth] = q[:len(q)-1]
		var res pe.SpawnResult
		if t.spawnBunch(parent, &res) {
			// Charge the spawn-unit work to the next completion.
			t.deferredSpawn += res.Spawned
			t.deferredPruned += res.Pruned
		}
	}
}

func (t *Tree) setState(b *bunch, n *task.Node, s State) {
	for i := range b.entries {
		if b.entries[i].node == n {
			b.entries[i].state = s
			return
		}
	}
	panic("core: node not found in its bunch")
}

func (t *Tree) freeEntry(b *bunch, n *task.Node) {
	for i := range b.entries {
		if b.entries[i].node == n {
			b.entries[i].node = nil
			b.entries[i].state = Ready // value irrelevant once node nil
			b.used--
			t.RetiredEntries++
			if ts := t.liveTree(n.TreeID); ts != nil {
				ts.liveWork--
			}
			return
		}
	}
	panic("core: freeing node not in bunch")
}

func (t *Tree) placeEntry(b *bunch, n *task.Node) {
	for i := range b.entries {
		if b.entries[i].node == nil {
			b.entries[i].node = n
			b.entries[i].state = Ready
			b.used++
			return
		}
	}
	panic("core: no free entry for extend")
}

// findBunch locates the bunch containing n.
func (t *Tree) findBunch(n *task.Node) *bunch {
	for _, b := range t.bunches[n.Depth] {
		for i := range b.entries {
			if b.entries[i].node == n {
				return b
			}
		}
	}
	panic(fmt.Sprintf("core: node depth=%d vertex=%d has no bunch", n.Depth, n.Vertex))
}

// Pending implements pe.Policy.
func (t *Tree) Pending() bool {
	if t.executing > 0 || t.activeTrees() > 0 {
		return true
	}
	for d := range t.bunches {
		if len(t.bunches[d]) > 0 {
			return true
		}
	}
	return false
}

// SetConservative implements pe.Policy (§3.2.3): in conservative mode
// non-sibling tasks are not scheduled alongside in-flight tasks, limiting
// the working set to one bunch's sibling group. If two merged trees are
// active, the one with the smaller maximum depth is quiesced (§4.2).
// Leaving conservative mode wakes the quiesced tree: its partner may be
// waiting on bunches it holds, so waiting for the partner to finish
// could wait forever.
func (t *Tree) SetConservative(on bool) {
	t.conservative = on
	if on && t.activeTrees() > 1 {
		t.quiesceSmaller()
	}
	if !on {
		t.wakeQuiesced()
	}
}

// wakeQuiesced un-quiesces the quiesced tree, if any.
func (t *Tree) wakeQuiesced() {
	for _, ts := range t.trees {
		if ts.quiesced {
			ts.quiesced = false
			t.QuiesceEvents++
			return
		}
	}
}

// quiesceSmaller freezes the merged tree with the smaller max depth.
func (t *Tree) quiesceSmaller() {
	var victim *treeState
	for _, ts := range t.trees {
		if ts.quiesced {
			return // already one quiesced
		}
		if victim == nil || ts.maxDepth < victim.maxDepth ||
			(ts.maxDepth == victim.maxDepth && ts.id > victim.id) {
			victim = ts
		}
	}
	if victim != nil {
		victim.quiesced = true
		t.QuiesceEvents++
	}
}

// SplittableRoot returns a depth-0 node with enough unexplored candidate
// range to split (§4.1), or nil.
func (t *Tree) SplittableRoot() *task.Node {
	for _, b := range t.bunches[0] {
		for i := range b.entries {
			e := &b.entries[i]
			if e.node == nil || !e.node.Executed {
				continue
			}
			if n := e.node; n.SpawnLimit-n.NextCand >= 2 {
				return n
			}
		}
	}
	return nil
}

// CarveSplit removes the tail [lo, hi) of the root's spawn window for
// transfer to `helpers` other PEs, one equal share each, by lowering the
// root's SpawnLimit to lo. The local root keeps [NextCand, lo).
func (t *Tree) CarveSplit(root *task.Node, helpers int) (lo, hi int, ok bool) {
	remaining := root.SpawnLimit - root.NextCand
	if remaining < 2 || helpers < 1 {
		return 0, 0, false
	}
	share := remaining / (helpers + 1)
	if share == 0 {
		return 0, 0, false
	}
	hi = root.SpawnLimit
	lo = hi - share*helpers
	root.SpawnLimit = lo
	t.SplitsPerformed++
	return lo, hi, true
}

// LiveEntries counts the occupied task-SPM entries across all bunches —
// the telemetry gauge for bunch occupancy.
func (t *Tree) LiveEntries() int {
	entries := 0
	for d := range t.bunches {
		for _, b := range t.bunches[d] {
			for _, e := range b.entries {
				if e.node != nil {
					entries++
				}
			}
		}
	}
	return entries
}

// StateSummary renders a one-line FSM census for diagnostic snapshots:
// live trees, executing entries, and per-state entry counts across all
// bunches.
func (t *Tree) StateSummary() string {
	var byState [4]int
	entries := 0
	for d := range t.bunches {
		for _, b := range t.bunches[d] {
			for _, e := range b.entries {
				if e.node != nil {
					entries++
					if int(e.state) < len(byState) {
						byState[e.state]++
					}
				}
			}
		}
	}
	pending := 0
	for _, q := range t.pendingSpawn {
		pending += len(q)
	}
	return fmt.Sprintf("trees=%d entries=%d ready=%d executing=%d resting=%d quiesced=%d pendingSpawn=%d",
		len(t.trees), entries, byState[Ready], byState[Executing], byState[Resting], byState[Quiesced], pending)
}

// DebugString renders the tree occupancy (for tests and the CLI's -v).
func (t *Tree) DebugString() string {
	s := ""
	for d := range t.bunches {
		if len(t.bunches[d]) == 0 {
			continue
		}
		s += fmt.Sprintf("depth %d:", d)
		for _, b := range t.bunches[d] {
			s += fmt.Sprintf(" [used=%d/%d]", b.used, cap(b.entries))
		}
		s += "\n"
	}
	return s
}
