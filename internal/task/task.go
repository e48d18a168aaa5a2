// Package task provides the search-tree node representation and the
// workload executor shared by every scheduling policy (BFS, DFS,
// pseudo-DFS, parallel-DFS, Shogun).
//
// A task in the paper's terminology is one search-tree node: matching
// position (depth) plus the graph vertex matched there. Executing a task
// computes the candidate set for the next position via the schedule's set
// operations. The executor here computes both the real data (so simulated
// runs produce exact embedding counts) and a timing profile (which memory
// regions are read/written and how many FU segment pairs the set ops
// consume) that the PE pipeline model turns into simulated time.
package task

import (
	"fmt"

	"shogun/internal/graph"
	"shogun/internal/mem"
	"shogun/internal/pattern"
	"shogun/internal/setops"
)

// Node is one search-tree node / task.
type Node struct {
	Depth  int
	Vertex graph.VertexID
	Parent *Node
	// TreeID identifies the search-tree instance the node belongs to
	// (relevant when a PE explores two merged trees, §4.2, or receives a
	// split subtree, §4.1).
	TreeID int

	// Execution products (valid once Executed):

	// Cand is the raw candidate set for Depth+1: nil for leaf-depth
	// nodes, which compute nothing, and for counted leaf parents (see
	// ExecuteReuse), which keep only counts.
	Cand []graph.VertexID
	// candBits is Cand's bitset view when Cand copies a hub's neighbor
	// list (nil otherwise): set operations on the stored set may probe
	// it. It only picks kernels, never results.
	candBits []uint64
	// SpawnLimit is the index bound in Cand after symmetry-breaking
	// truncation: children are drawn from Cand[:SpawnLimit]. Together
	// with NextCand it is the node's spawn window: a task-tree split
	// (§4.1) lowers the victim root's SpawnLimit to the carved range's
	// start, and the adopted copy spawns from [lo, hi) of the same Cand.
	SpawnLimit int
	// NextCand is the enumeration cursor into Cand[:SpawnLimit].
	NextCand int
	// Live counts direct children whose subtrees are incomplete.
	Live int
	// Slot is the intermediate-set storage slot (address token) holding
	// Cand; -1 when none is allocated.
	Slot int
	// Executed is set once the node's set operations have been played.
	Executed bool
	// SharedCand marks an alias task: Cand and Slot belong to an
	// ancestor's stored set (the plan was a pure reference, e.g. the
	// diamond's second apex drawing from the same candidate set). The
	// node owns neither the slice nor the token.
	SharedCand bool
	// leafHits is, for a counted leaf parent, how many of its Distinct
	// ancestors are among the SpawnLimit candidates below the bound. It
	// sits in the padding after the two flags, which keeps Node in a
	// 128-byte size class (TestNodeSize).
	leafHits int32
}

// HasMoreCands reports whether the node still has unexplored candidates.
func (n *Node) HasMoreCands() bool {
	return n.Executed && n.NextCand < n.SpawnLimit
}

// SubtreeComplete reports whether the node's whole subtree has finished:
// it executed, has no unexplored candidates, and no live children.
func (n *Node) SubtreeComplete() bool {
	return n.Executed && !n.HasMoreCands() && n.Live == 0
}

// Path writes the matched vertices of the node's ancestor chain (root
// first, the node itself last) into buf, which must have length ≥
// Depth+1. It returns buf[:Depth+1].
func (n *Node) Path(buf []graph.VertexID) []graph.VertexID {
	for cur := n; cur != nil; cur = cur.Parent {
		buf[cur.Depth] = cur.Vertex
	}
	return buf[:n.Depth+1]
}

// Ancestor returns the ancestor at the given depth (may be n itself).
func (n *Node) Ancestor(depth int) *Node {
	cur := n
	for cur != nil && cur.Depth > depth {
		cur = cur.Parent
	}
	if cur == nil || cur.Depth != depth {
		panic(fmt.Sprintf("task: ancestor at depth %d not found from depth %d", depth, n.Depth))
	}
	return cur
}

// ReadClass distinguishes memory regions with different cache policies.
type ReadClass int

const (
	// ReadCSR is graph adjacency data: cached in L2 only (§3.1).
	ReadCSR ReadClass = iota
	// ReadIntermediate is a materialized candidate set: cached in L1.
	ReadIntermediate
)

// Read describes one input-set fetch of a task.
type Read struct {
	Class ReadClass
	Addr  int64
	Bytes int64
}

// Profile is the timing-relevant description of one task's execution.
type Profile struct {
	Reads []Read
	// OutBytes is the size of the produced candidate set (written to the
	// node's slot address).
	OutBytes int64
	// OutAddr is the write target (valid when OutBytes > 0).
	OutAddr int64
	// SegPairs is the set-operation work in divider/IU segment pairs.
	SegPairs int
	// InputLines and OutputLines are the SPM footprint of the task.
	InputLines  int
	OutputLines int
	// IntermediateLines counts input lines read from the intermediate
	// region (the Table 2 metric).
	IntermediateLines int
	// Leaf marks a no-compute task at the last matching position.
	Leaf bool
}

// Workload binds a graph, a schedule and the simulated address layout.
// One Workload is shared by all PEs of an accelerator run (the event loop
// is single-threaded, so the shared scratch buffers are safe).
type Workload struct {
	G   *graph.Graph
	S   *pattern.Schedule
	Map mem.AddressMap

	// hubs and disp pick each set operation's kernel: CSR operands of
	// hub vertices carry their adjacency bitset, so the dispatcher can
	// probe instead of merge. Kernel choice is functional only — the
	// profile is computed from operand lengths — so it changes no
	// simulated cycle.
	hubs *graph.HubIndex
	disp setops.Dispatcher

	scratchA []graph.VertexID
	scratchB []graph.VertexID
	pathBuf  []graph.VertexID
	cands    *CandPool
	nodeFree []*Node

	// Task-flow hardware counters (metrics.Verify conservation: every
	// created node is either executed locally or adopted pre-executed
	// from a split transfer, and every node is eventually released).
	NodesCreated  int64
	NodesReleased int64
	Executions    int64
}

// CandPool is a free list of candidate buffers, each with capacity for
// g's largest neighbour set, so set kernels never grow one. A machine
// has one pool, which all its chips' workloads draw from: a split or
// migrated snapshot is taken from the pool on the victim chip and
// released into it by the adopting one, and per-chip pools would drain
// busy chips' buffers onto idle ones. Like the event loop that uses it,
// a pool is single-threaded.
type CandPool struct {
	size int
	free [][]graph.VertexID
}

// NewCandPool returns an empty pool of candidate buffers for g.
func NewCandPool(g *graph.Graph) *CandPool { return &CandPool{size: g.MaxDegree()} }

func (p *CandPool) get() []graph.VertexID {
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free = p.free[:k-1]
		return b
	}
	return make([]graph.VertexID, 0, p.size)
}

func (p *CandPool) put(b []graph.VertexID) { p.free = append(p.free, b[:0]) }

// NewWorkload creates a workload whose candidate buffers come from
// cands, a pool built for g.
func NewWorkload(g *graph.Graph, s *pattern.Schedule, cands *CandPool) *Workload {
	maxSet := g.MaxDegree()
	return &Workload{
		G:        g,
		S:        s,
		Map:      mem.NewAddressMap(int64(g.NumEdges()*2), maxSet),
		hubs:     g.HubIndex(),
		scratchA: make([]graph.VertexID, 0, maxSet),
		scratchB: make([]graph.VertexID, 0, maxSet),
		pathBuf:  make([]graph.VertexID, s.Depth()),
		cands:    cands,
	}
}

// LeafDepth returns the last matching position.
func (w *Workload) LeafDepth() int { return w.S.Depth() - 1 }

// NewNode allocates a node (from the free list when possible).
func (w *Workload) NewNode(depth int, v graph.VertexID, parent *Node, treeID int) *Node {
	var n *Node
	if k := len(w.nodeFree); k > 0 {
		n = w.nodeFree[k-1]
		w.nodeFree = w.nodeFree[:k-1]
		*n = Node{}
	} else {
		n = &Node{}
	}
	n.Depth = depth
	n.Vertex = v
	n.Parent = parent
	n.TreeID = treeID
	n.Slot = -1
	if parent != nil {
		parent.Live++
	}
	w.NodesCreated++
	return n
}

// Release returns a completed node's buffers to the free lists and
// detaches it from its parent, returning the parent (whose Live count has
// been decremented) or nil for roots. The caller must have checked
// SubtreeComplete.
func (w *Workload) Release(n *Node) *Node {
	if n.Cand != nil {
		if !n.SharedCand {
			w.cands.put(n.Cand)
		}
		n.Cand = nil
	}
	parent := n.Parent
	if parent != nil {
		parent.Live--
		if parent.Live < 0 {
			panic("task: parent live count underflow")
		}
	}
	n.Parent = nil
	w.nodeFree = append(w.nodeFree, n)
	w.NodesReleased++
	return parent
}

// CopyCand returns a copy of cand in a buffer from the machine's pool,
// which Release recycles with the node that owns it. Every pooled buffer
// holds the largest set, so set kernels never grow one. A split or
// migration snapshot is taken this way on the victim chip, and the
// adopting tree takes the buffer over as its root's candidate set
// (core.Tree.AdoptSplit) without copying it again.
func (w *Workload) CopyCand(cand []graph.VertexID) []graph.VertexID {
	return append(w.cands.get(), cand...)
}

// resolve returns the actual set named by ref for the node's path, plus
// its Read descriptor. For RefStored the owning ancestor's slot provides
// the address. A hub's neighbor set, or a stored copy of it, comes with
// its bitset view.
func (w *Workload) resolve(n *Node, ref pattern.SetRef, path []graph.VertexID) (setops.Operand, Read) {
	if ref.Kind == pattern.RefNeighbor {
		u := path[ref.Pos]
		set := w.G.Neighbors(u)
		return setops.Operand{List: set, Bits: w.hubs.Bits(u)}, Read{
			Class: ReadCSR,
			Addr:  w.Map.CSRAddr(w.G.NeighborOffset(u)),
			Bytes: int64(len(set)) * 4,
		}
	}
	owner := n.Ancestor(ref.Pos - 1)
	if !owner.Executed || owner.Cand == nil {
		panic("task: stored set referenced before materialization")
	}
	return setops.Operand{List: owner.Cand, Bits: owner.candBits}, Read{
		Class: ReadIntermediate,
		Addr:  w.Map.SetAddr(owner.Slot),
		Bytes: int64(len(owner.Cand)) * 4,
	}
}

// ExecuteReuse runs the node's set operations: it fills n.Cand/SpawnLimit
// and returns the timing profile. slot is the storage slot allocated for
// the output set (-1 if the output is not stored — only legal for
// leaf-depth nodes). ExecuteReuse must be called exactly once per node.
//
// reads is a caller-provided backing array for the profile's Reads list
// (nil allocates). The PE pipeline passes each in-flight task's scratch
// buffer so the hot path stays allocation-free; Reads only escapes to a
// fresh allocation if a plan needs more input fetches than the buffer
// holds. reads must be empty (length 0) and is otherwise treated as
// append's backing.
func (w *Workload) ExecuteReuse(n *Node, slot int, reads []Read) Profile {
	if n.Executed {
		panic("task: node executed twice")
	}
	n.Executed = true
	w.Executions++
	n.Slot = slot

	var prof Profile
	prof.Reads = reads
	if n.Depth == w.LeafDepth() {
		prof.Leaf = true
		return prof
	}

	childDepth := n.Depth + 1
	plan := &w.S.Plans[childDepth]
	path := n.Path(w.pathBuf)

	if w.PlanIsAlias(childDepth) {
		// Alias plan: the candidate set IS an ancestor's stored set.
		// No set operation, no copy, no token: the node references the
		// owner's data; children (or the leaf counter) read it in
		// place. This is where sibling locality comes from — all
		// siblings re-read the same intermediate lines.
		owner := n.Ancestor(plan.Base.Pos - 1)
		if !owner.Executed || owner.Cand == nil {
			panic("task: alias of unmaterialized set")
		}
		n.Cand, n.candBits = owner.Cand, owner.candBits
		n.Slot = owner.Slot
		n.SharedCand = true
		w.truncate(n, plan, path)
		return prof
	}

	cur, baseRead := w.resolve(n, plan.Base, path)
	prof.Reads = append(prof.Reads, baseRead)
	if baseRead.Class == ReadIntermediate {
		prof.IntermediateLines += setops.Lines(len(cur.List))
	}
	prof.InputLines += setops.Lines(len(cur.List))

	// A leaf parent below the root counts its last step instead of
	// storing it: only CountLeafMatches reads the set. A root keeps its
	// set, since a task-tree split may carve its spawn window.
	counted := n.Depth > 0 && childDepth == w.LeafDepth() && len(plan.Steps) > 0
	var size int
	if len(plan.Steps) == 0 {
		// CSR-base copy plan: materialize the neighbor set as an
		// intermediate result (the "depth-1 tasks fetch the neighbor
		// set as the intermediate results" behaviour of §5.2.1).
		n.Cand, n.candBits = w.CopyCand(cur.List), cur.Bits
	} else {
		for i, op := range plan.Steps {
			operand, opRead := w.resolve(n, op.Ref, path)
			prof.Reads = append(prof.Reads, opRead)
			if opRead.Class == ReadIntermediate {
				prof.IntermediateLines += setops.Lines(len(operand.List))
			}
			prof.InputLines += setops.Lines(len(operand.List))
			prof.SegPairs += setops.SegmentPairs(len(cur.List), len(operand.List))

			last := i == len(plan.Steps)-1
			if last && counted {
				size = w.countLeaf(n, plan, path, cur, operand, op.Sub)
				break
			}
			var dst []graph.VertexID
			switch {
			case last:
				dst = w.cands.get()
			case i%2 == 0:
				dst = w.scratchA[:0]
			default:
				dst = w.scratchB[:0]
			}
			if op.Sub {
				dst = w.disp.Subtract(dst, cur, operand)
			} else {
				dst = w.disp.Intersect(dst, cur, operand)
			}
			switch {
			case last:
				n.Cand = dst
			case i%2 == 0:
				w.scratchA = dst
			default:
				w.scratchB = dst
			}
			cur = setops.Operand{List: dst}
		}
	}

	if !counted {
		w.truncate(n, plan, path)
		size = len(n.Cand)
	}

	prof.OutBytes = int64(size) * 4
	prof.OutputLines = setops.Lines(size)
	if slot >= 0 {
		prof.OutAddr = w.Map.SetAddr(slot)
	}
	return prof
}

// countLeaf settles a leaf parent's last set operation, a op b (a \ b
// when sub), without storing it: SpawnLimit becomes the number of
// results below the symmetry bound and leafHits the Distinct ancestors
// among them, found by testing membership in both inputs. It returns
// |a op b|, the size the profile charges as if the set were written.
func (w *Workload) countLeaf(n *Node, plan *pattern.Plan, path []graph.VertexID, a, b setops.Operand, sub bool) int {
	limit := setops.NoLimit
	for _, j := range plan.BoundBy {
		limit = min(limit, path[j])
	}
	var size int
	if sub {
		size, n.SpawnLimit = w.disp.SubtractCount(a, b, limit)
	} else {
		size, n.SpawnLimit = w.disp.IntersectCount(a, b, limit)
	}
	for _, j := range plan.Distinct {
		if u := path[j]; u < limit && has(a, u) && has(b, u) != sub {
			n.leafHits++
		}
	}
	return size
}

// has reports whether x is in o's set, by a bit probe when o has bits.
func has(o setops.Operand, x graph.VertexID) bool {
	if o.Bits != nil {
		return setops.BitsetHas(o.Bits, x)
	}
	return setops.Contains(o.List, x)
}

// truncate applies symmetry-breaking upper bounds: children must be <
// every bounding ancestor's vertex, so the sorted candidate set shrinks
// to a prefix.
func (w *Workload) truncate(n *Node, plan *pattern.Plan, path []graph.VertexID) {
	n.SpawnLimit = len(n.Cand)
	for _, a := range plan.BoundBy {
		limit := path[a]
		n.SpawnLimit = len(setops.Bound(n.Cand[:n.SpawnLimit], limit))
	}
}

// PlanIsAlias reports whether the candidate plan for position d is a pure
// reference to an ancestor's stored set (no set operation, no storage of
// its own — the task at position d-1 needs no address token).
func (w *Workload) PlanIsAlias(d int) bool {
	if d <= 0 || d >= w.S.Depth() {
		return false
	}
	p := &w.S.Plans[d]
	return p.Base.Kind == pattern.RefStored && len(p.Steps) == 0
}

// NeedsToken reports whether a task at the given depth requires an
// address token for its output candidate set. Leaf-parent tasks never do:
// for counting workloads the final candidate set is consumed as a size in
// the datapath (GraphPi-style counting; FlexMiner/FINGERS count the last
// level without materializing it), so nothing is stored. Below the root
// the functional model matches: ExecuteReuse counts a leaf parent's last
// set operation instead of materializing it. A depth-0 leaf parent (a
// depth-2 pattern) and an alias leaf parent still hold a set, in a host
// buffer or an ancestor's slot, never in a slot of its own.
func (w *Workload) NeedsToken(depth int) bool {
	if depth+1 >= w.LeafDepth() {
		return false
	}
	return !w.PlanIsAlias(depth + 1)
}

// ChildValid reports whether candidate v can extend the node to a child at
// Depth+1 (distinctness against non-adjacent matched ancestors; adjacency
// constraints are already encoded in the candidate set).
func (w *Workload) ChildValid(n *Node, v graph.VertexID) bool {
	for _, j := range w.S.Plans[n.Depth+1].Distinct {
		if n.Ancestor(j).Vertex == v {
			return false
		}
	}
	return true
}

// NextChild draws the next valid candidate from the node's cursor,
// skipping pruned (distinctness-violating) candidates. ok is false when
// the cursor is exhausted. pruned reports how many candidates were
// skipped (they still cost the spawn unit a vertex fetch each).
func (w *Workload) NextChild(n *Node) (v graph.VertexID, pruned int, ok bool) {
	for n.NextCand < n.SpawnLimit {
		c := n.Cand[n.NextCand]
		n.NextCand++
		if w.ChildValid(n, c) {
			return c, pruned, true
		}
		pruned++
	}
	return 0, pruned, false
}

// CountLeafMatches counts the node's valid children when the node sits at
// the second-to-last position: each valid candidate is one embedding.
// Used for aggregated leaf handling (see DESIGN.md): the count is exact,
// identical to enumerating leaf tasks one by one. Below the root a leaf
// parent was counted when it executed, and the result is read back. An
// alias leaf parent, or a root one (kept so a split can carve it),
// searches its stored window for the (at most |Distinct|)
// already-matched vertices: a range check and a bit probe when the set
// has a hub bitset, a binary search otherwise.
func (w *Workload) CountLeafMatches(n *Node) int64 {
	if n.Depth != w.LeafDepth()-1 {
		panic("task: CountLeafMatches on wrong depth")
	}
	count := int64(n.SpawnLimit - n.NextCand)
	if n.Cand == nil {
		count -= int64(n.leafHits)
	} else if window := n.Cand[n.NextCand:n.SpawnLimit]; len(window) > 0 {
		for _, j := range w.S.Plans[n.Depth+1].Distinct {
			u := n.Ancestor(j).Vertex
			if n.candBits != nil {
				if window[0] <= u && u <= window[len(window)-1] && setops.BitsetHas(n.candBits, u) {
					count--
				}
			} else if setops.Contains(window, u) {
				count--
			}
		}
	}
	n.NextCand = n.SpawnLimit
	return count
}
