// Package mine implements software graph pattern mining. It serves two
// roles in this repository:
//
//   - a golden model: every accelerator simulation's embedding count is
//     checked against the schedule-driven miner here, and the miner itself
//     is checked against a brute-force enumerator;
//   - a workload profiler: it collects the per-task statistics that the
//     paper's Table 2 reports (average intermediate-data cache lines per
//     task).
package mine

import (
	"fmt"

	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/setops"
)

// Result summarizes one mining run.
type Result struct {
	// Embeddings is the number of unique subgraphs isomorphic to the
	// pattern (after symmetry breaking each is found exactly once).
	Embeddings int64
	// TasksPerDepth counts search-tree nodes per matching position,
	// including leaf tasks at the last position.
	TasksPerDepth []int64
	// IntermediateLinesPerDepth accumulates, per position, the number
	// of intermediate-data cache lines read by tasks of that position
	// (RefStored inputs only, matching Table 2's accounting).
	IntermediateLinesPerDepth []int64
	// SetOpElements accumulates the total elements streamed through set
	// operations (a machine-independent work measure).
	SetOpElements int64
}

// Tasks reports the total search-tree node count.
func (r *Result) Tasks() int64 {
	var t int64
	for _, n := range r.TasksPerDepth {
		t += n
	}
	return t
}

// AvgIntermediateLinesPerTask reports the Table 2 metric: the average
// number of input intermediate-data cache lines per task.
func (r *Result) AvgIntermediateLinesPerTask() float64 {
	var lines int64
	for _, l := range r.IntermediateLinesPerDepth {
		lines += l
	}
	t := r.Tasks()
	if t == 0 {
		return 0
	}
	return float64(lines) / float64(t)
}

// Visitor observes found embeddings. m holds the matched graph vertices by
// matching position. Implementations must not retain m.
type Visitor func(m []graph.VertexID)

// Miner executes a schedule over a graph with a DFS strategy.
type Miner struct {
	g *graph.Graph
	s *pattern.Schedule

	matched []graph.VertexID
	// sets[d] stores the candidate set computed for position d. It and
	// the scratch buffers grow on first use: the local-graph pass never
	// touches them.
	sets [][]graph.VertexID
	// idx[d] is the index of matched[d] in sets[d] while position d's
	// loop (enumerate or countLeaves) runs, so sets[d][:idx[d]] is
	// sets[d] bounded by matched[d].
	idx      []int
	scratch  []graph.VertexID
	scratch2 []graph.VertexID
	visitor  Visitor
	res      Result
	// kern is the hybrid set-kernel context (see kernels.go).
	kern kernelContext
}

// NewMiner creates a miner for schedule s over graph g.
func NewMiner(g *graph.Graph, s *pattern.Schedule) *Miner {
	n := s.Depth()
	m := &Miner{
		g:       g,
		s:       s,
		matched: make([]graph.VertexID, n),
		sets:    make([][]graph.VertexID, n),
		idx:     make([]int, n),
	}
	m.res.TasksPerDepth = make([]int64, n)
	m.res.IntermediateLinesPerDepth = make([]int64, n)
	m.initKernels()
	return m
}

// SetVisitor installs a callback invoked once per found embedding.
func (m *Miner) SetVisitor(v Visitor) { m.visitor = v }

// Run mines the whole graph and returns the result.
func (m *Miner) Run() *Result {
	for v := 0; v < m.g.NumVertices(); v++ {
		m.RunRoot(graph.VertexID(v))
	}
	return &m.res
}

// RunRoot explores the single search tree rooted at vertex root
// (matching position 0). Results accumulate across calls. A counting
// miner whose schedule has clique shape counts the tree in one pass over
// the root's local graph (see cliqueShaped).
func (m *Miner) RunRoot(root graph.VertexID) {
	m.matched[0] = root
	if m.kern.enabled && m.visitor == nil {
		switch {
		case m.kern.clique == 3:
			m.countTriangles(root)
			return
		case m.kern.clique == 4 && m.countFourCliques(root):
			return
		}
	}
	m.enumerate(0, m.matched[:1])
}

// Result returns the statistics accumulated so far.
func (m *Miner) Result() *Result { return &m.res }

// computeCandidates evaluates the plan for position d, leaving the result
// in m.sets[d], and returns it. It also accrues the task-level statistics
// for the task at position d-1 (which is the task performing this work).
// Set operations route through the kernel dispatcher, which picks merge,
// gallop, or bitmap per operand pair; SetOpElements deliberately counts
// the logical elements of both inputs regardless of the kernel chosen, so
// the statistic is kernel-independent.
func (m *Miner) computeCandidates(d int) []graph.VertexID {
	plan := &m.s.Plans[d]
	m.invalidateStoredBits(d)
	base := m.operand(plan.Base)
	if plan.Base.Kind == pattern.RefStored {
		m.res.IntermediateLinesPerDepth[d-1] += int64(setops.Lines(len(base.List)))
	}
	if len(plan.Steps) == 0 {
		// Alias plan: the candidate set equals an existing set.
		// Materialize into sets[d], mirroring the hardware, which
		// re-stores the set under a fresh address token. The copy keeps
		// the original's bitset view (hub or alias bits are stable).
		m.sets[d] = append(m.sets[d][:0], base.List...)
		if m.kern.enabled {
			m.kern.aliasBits[d] = base.Bits
		}
		return m.sets[d]
	}
	cur := base
	for i, op := range plan.Steps {
		operand := m.operand(op.Ref)
		if op.Ref.Kind == pattern.RefStored {
			m.res.IntermediateLinesPerDepth[d-1] += int64(setops.Lines(len(operand.List)))
		}
		m.res.SetOpElements += int64(len(cur.List) + len(operand.List))
		// Alternate between two scratch buffers for intermediate fold
		// steps so no step reads and writes the same backing array;
		// the final step always lands in sets[d] (whose array is never
		// an input: base and operands come from other positions).
		var dst []graph.VertexID
		last := i == len(plan.Steps)-1
		switch {
		case last:
			dst = m.sets[d][:0]
		case i%2 == 0:
			dst = m.scratch[:0]
		default:
			dst = m.scratch2[:0]
		}
		if op.Sub {
			dst = m.kern.disp.Subtract(dst, cur, operand)
		} else {
			dst = m.kern.disp.Intersect(dst, cur, operand)
		}
		switch {
		case last:
			m.sets[d] = dst
		case i%2 == 0:
			m.scratch = dst
		default:
			m.scratch2 = dst
		}
		cur = setops.Operand{List: dst}
	}
	return m.sets[d]
}

// candidatesFor returns the bounded candidate list for position d: the
// computed candidate set truncated by symmetry-breaking upper bounds.
// Distinctness against earlier matched vertices is checked per element by
// the caller (the Distinct list is tiny).
func (m *Miner) candidatesFor(d int, set []graph.VertexID) []graph.VertexID {
	plan := &m.s.Plans[d]
	bounded := set
	for _, a := range plan.BoundBy {
		bounded = setops.Bound(bounded, m.matched[a])
	}
	return bounded
}

func (m *Miner) isDistinct(d int, v graph.VertexID) bool {
	for _, j := range m.s.Plans[d].Distinct {
		if m.matched[j] == v {
			return false
		}
	}
	return true
}

// extend matches position d against the current partial embedding. The
// caller has filled matched[0..d-1].
func (m *Miner) extend(d int) {
	set := m.computeCandidates(d)
	cands := m.candidatesFor(d, set)
	if d < m.s.Depth()-1 {
		m.enumerate(d, cands)
		return
	}
	// A materialized last position: the visitor path, counting with
	// hybrid kernels disabled, or a leaf that is not batched (see
	// kernelContext.batched).
	if m.visitor == nil {
		// All bounded candidates match except the (few) already-matched
		// vertices, found by binary search.
		count := int64(len(cands))
		for _, j := range m.s.Plans[d].Distinct {
			if setops.Contains(cands, m.matched[j]) {
				count--
			}
		}
		m.res.TasksPerDepth[d] += count
		m.res.Embeddings += count
		return
	}
	for _, v := range cands {
		if !m.isDistinct(d, v) {
			continue
		}
		m.res.TasksPerDepth[d]++
		m.res.Embeddings++
		m.matched[d] = v
		m.visitor(m.matched)
	}
}

// enumerate matches position d against each of cands, its bounded
// candidates, and recurses. When position d+1 is the counting leaf the
// whole sibling loop is one leaf-parent batch (countLeaves).
func (m *Miner) enumerate(d int, cands []graph.VertexID) {
	if d+1 == m.s.Depth()-1 && m.visitor == nil && m.kern.enabled && m.kern.batched {
		m.countLeaves(d, cands)
		return
	}
	// Candidate sets of deeper positions may reuse m.sets[d]; the
	// recursion below never overwrites sets of shallower positions, so
	// iterating over `cands` (a view of m.sets[d]) is safe: stored sets
	// are only written by computeCandidates(d') for d' > d.
	for i := 0; i < len(cands); i++ {
		v := cands[i]
		if !m.isDistinct(d, v) {
			continue
		}
		m.res.TasksPerDepth[d]++
		m.matched[d] = v
		m.idx[d] = i
		m.extend(d + 1)
	}
}

// Count is a convenience wrapper: mine graph g for schedule s and return
// the embedding count.
func Count(g *graph.Graph, s *pattern.Schedule) int64 {
	return NewMiner(g, s).Run().Embeddings
}

// CountPattern builds the default schedule for p (induced or not) and
// counts embeddings in g.
func CountPattern(g *graph.Graph, p pattern.Pattern, induced bool) (int64, error) {
	s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
	if err != nil {
		return 0, err
	}
	return Count(g, s), nil
}

// BruteForceCount enumerates all injective vertex mappings and counts
// unique embeddings (up to automorphism) directly: the number of
// isomorphic (or induced-isomorphic) copies equals the number of
// satisfying injective mappings divided by |Aut(p)|. It is exponential and
// intended only as a test oracle on small graphs.
func BruteForceCount(g *graph.Graph, p pattern.Pattern, induced bool) (int64, error) {
	n := p.N()
	if g.NumVertices() > 2000 {
		return 0, fmt.Errorf("mine: graph too large for brute force (%d vertices)", g.NumVertices())
	}
	auts := int64(len(p.Automorphisms()))
	assigned := make([]graph.VertexID, n)
	var mappings int64
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			mappings++
			return
		}
		for v := 0; v < g.NumVertices(); v++ {
			vid := graph.VertexID(v)
			ok := true
			for j := 0; j < pos && ok; j++ {
				if assigned[j] == vid {
					ok = false
					break
				}
				pe := p.HasEdge(j, pos)
				ge := g.HasEdge(assigned[j], vid)
				if pe && !ge {
					ok = false
				}
				if induced && !pe && ge {
					ok = false
				}
			}
			if !ok {
				continue
			}
			assigned[pos] = vid
			rec(pos + 1)
		}
	}
	rec(0)
	if mappings%auts != 0 {
		return 0, fmt.Errorf("mine: brute force found %d mappings not divisible by |Aut|=%d", mappings, auts)
	}
	return mappings / auts, nil
}
