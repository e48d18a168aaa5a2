package mine

import (
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/setops"
)

// storedBitsMinLen is the smallest stored candidate set worth mirroring
// into a scratch bitset: building and later clearing cost 2·|set|, which
// a single bitmap probe against it already roughly repays, and stored
// sets are typically probed once per sibling task.
const storedBitsMinLen = 64

// kernelContext is the per-Miner hybrid set-kernel state: the graph's
// shared hub index (prebuilt adjacency bitsets for high-degree vertices),
// the adaptive merge/gallop/bitmap dispatcher, and reusable scratch
// bitsets that mirror stored candidate sets so sibling tasks can probe
// them instead of re-merging (the "zero-waste" hot path).
type kernelContext struct {
	enabled bool
	hub     *graph.HubIndex
	disp    setops.Dispatcher
	words   int // bitset width for this graph
	// lower is the graph's shared lower-neighbour split: N(v)[:lower[v]]
	// is N(v) bounded by v (see freeBound).
	lower []int32
	// searchBounds makes freeBound find no free bound, so every leaf
	// bound is a binary search: the reference the free bounds are
	// tested against.
	searchBounds bool

	// setBits[d] is a lazily allocated scratch bitset mirroring sets[d]
	// while setLive[d]; it is cleared element-wise (cost ∝ |sets[d]|)
	// before sets[d] is overwritten.
	setBits [][]uint64
	setLive []bool
	// aliasBits[d] is the hub bitset view of sets[d] when plan d aliases
	// a hub's full neighbor list, giving the stored set a free bitset.
	aliasBits [][]uint64
	// lazy[d] is a prebuilt closure returning the (built-on-demand)
	// scratch bitset of sets[d]; prebuilding avoids a closure allocation
	// per operand in the hot loop.
	lazy []func() []uint64
	// leafOps holds the counting leaf's operands, base first, resolved
	// once per leaf parent (see countLeaves).
	leafOps []setops.Operand
}

func (m *Miner) initKernels() {
	k := &m.kern
	k.enabled = true
	k.hub = m.g.HubIndex()
	k.lower = m.g.LowerSplit()
	k.words = setops.BitsetWords(m.g.NumVertices())
	n := m.s.Depth()
	k.setBits = make([][]uint64, n)
	k.setLive = make([]bool, n)
	k.aliasBits = make([][]uint64, n)
	k.lazy = make([]func() []uint64, n)
	for d := 0; d < n; d++ {
		d := d
		k.lazy[d] = func() []uint64 { return m.storedBits(d) }
	}
	k.leafOps = make([]setops.Operand, 1+len(m.s.Plans[n-1].Steps))
}

// SetHybridKernels toggles the hybrid bitmap/gallop kernel layer and the
// counting-only leaf path (on by default). Disabling reproduces the
// merge/gallop-only baseline exactly — counts and all Result statistics
// are identical either way — and exists for benchmarks and ablations.
func (m *Miner) SetHybridKernels(on bool) { m.kern.enabled = on }

// KernelStats reports which kernels the dispatcher selected so far.
func (m *Miner) KernelStats() setops.Stats { return m.kern.disp.Stats }

// storedBits returns the scratch bitset mirroring sets[d], building it on
// first use after each invalidation. Only the dispatcher calls it (via
// kern.lazy), and only once it has decided a bitmap probe is cheapest.
func (m *Miner) storedBits(d int) []uint64 {
	k := &m.kern
	if !k.setLive[d] {
		if k.setBits[d] == nil {
			k.setBits[d] = make([]uint64, k.words)
		}
		setops.BitsetFill(k.setBits[d], m.sets[d])
		k.setLive[d] = true
	}
	return k.setBits[d]
}

// invalidateStoredBits must run before sets[d] is overwritten: it clears
// the scratch bitset element-wise from the outgoing set content and drops
// any alias view.
func (m *Miner) invalidateStoredBits(d int) {
	k := &m.kern
	if k.setLive[d] {
		setops.BitsetClearList(k.setBits[d], m.sets[d])
		k.setLive[d] = false
	}
	k.aliasBits[d] = nil
}

// operand resolves ref into a dispatcher operand: the list view plus
// whatever bitset view is available — hub bitsets for neighbor refs,
// alias or lazily built scratch bitsets for stored refs.
func (m *Miner) operand(ref pattern.SetRef) setops.Operand {
	if ref.Kind == pattern.RefNeighbor {
		v := m.matched[ref.Pos]
		op := setops.Operand{List: m.g.Neighbors(v)}
		if m.kern.enabled {
			op.Bits = m.kern.hub.Bits(v)
		}
		return op
	}
	op := setops.Operand{List: m.sets[ref.Pos]}
	if m.kern.enabled {
		if ab := m.kern.aliasBits[ref.Pos]; ab != nil {
			op.Bits = ab
		} else if len(op.List) >= storedBitsMinLen {
			op.LazyBits = m.kern.lazy[ref.Pos]
		}
	}
	return op
}

// freeBound returns the length of the prefix of ref's list (n elements)
// below limit when no search is needed, or -1. The whole list is below
// NoLimit, and when limit is the vertex ref is keyed on the prefix is
// already known:
//   - a stored set C_p was enumerated up to matched[p], which sits at
//     index idx[p] of the ascending sets[p], so sets[p][:idx[p]] holds
//     exactly its elements below matched[p];
//   - N(x) bounded by x is N(x)[:lower[x]], the graph's lower split.
//
// Any other limit needs setops.Bound. freeBound is small enough to
// inline, so the leaf-parent batch pays no call for a free bound.
func (m *Miner) freeBound(ref pattern.SetRef, n int, limit graph.VertexID) int {
	switch {
	case limit == setops.NoLimit:
		return n
	case m.matched[ref.Pos] != limit || m.kern.searchBounds:
		return -1
	case ref.Kind == pattern.RefStored:
		return m.idx[ref.Pos]
	}
	return int(m.kern.lower[limit])
}

// boundedPrefix returns list truncated to elements below limit, given
// n, freeBound's answer for it: the free prefix, or a binary search.
func boundedPrefix(list []graph.VertexID, n int, limit graph.VertexID) []graph.VertexID {
	if n >= 0 {
		return list[:n]
	}
	return setops.Bound(list, limit)
}

// countLeaves counts the leaf position d+1 under each of cands, the
// bounded candidates of its parent position d, as one leaf-parent batch,
// without materializing any leaf candidate set. Once per parent it
// resolves the leaf plan, the part of the leaf's bound set by positions
// below d, and every operand but N(v_d): stored sets C_j (j ≤ d) and
// neighbour sets N(v_j) (j < d) do not change while position d's loop
// runs. Per sibling it checks distinctness, runs the fold steps but the
// last into scratch buffers (foldLeaf), and counts the last step with a
// counting kernel over bounded prefixes (freeBound), minus the Distinct
// exclusions found by membership probes. The dispatcher sees the calls a
// materializing leaf would make, in the same order with the same bounded
// lengths, so kernel selection and every Result statistic are
// bit-identical to it. The statistics accrue in closed form: the stored
// inputs' lines are a per-parent constant per leaf task.
func (m *Miner) countLeaves(d int, cands []graph.VertexID) {
	k := &m.kern
	plan := &m.s.Plans[d+1]
	steps := len(plan.Steps)
	limit0, sibBound := setops.NoLimit, false
	for _, a := range plan.BoundBy {
		if a == d {
			sibBound = true
		} else if m.matched[a] < limit0 {
			limit0 = m.matched[a]
		}
	}
	// ops[0] is the base and ops[j] step j-1's operand. sib indexes the
	// operand N(v_d), if any, which each sibling resolves itself (a plan
	// reads each N(v_j) at most once).
	ops, sib := k.leafOps, -1
	var lines int64
	for j := range ops {
		ref := plan.Base
		if j > 0 {
			ref = plan.Steps[j-1].Ref
		}
		switch {
		case ref.Kind == pattern.RefNeighbor && ref.Pos == d:
			sib = j
		case ref.Kind == pattern.RefStored:
			lines += int64(setops.Lines(len(m.sets[ref.Pos])))
			fallthrough
		default:
			ops[j] = m.operand(ref)
		}
	}
	distinct := m.s.Plans[d].Distinct
	var lastRef pattern.SetRef
	var sub bool
	if steps > 0 {
		lastRef, sub = plan.Steps[steps-1].Ref, plan.Steps[steps-1].Sub
	}
	var tasks, count, elems int64
siblings:
	for i, v := range cands {
		for _, j := range distinct {
			if m.matched[j] == v {
				continue siblings
			}
		}
		tasks++
		m.matched[d], m.idx[d] = v, i
		limit := limit0
		if sibBound && v < limit {
			limit = v
		}
		// The last step's inputs a and b (the base, or the fold of every
		// other step, and the last operand) are held as bare slices: an
		// Operand is too large to live in registers, and copying one
		// built field by field stalls on store forwarding.
		var nl []graph.VertexID
		var nbits []uint64
		if sib >= 0 {
			nl, nbits = m.g.Neighbors(v), k.hub.Bits(v)
		}
		aList, aBits, aLazy := ops[0].List, ops[0].Bits, ops[0].LazyBits
		if sib == 0 {
			aList, aBits, aLazy = nl, nbits, nil
		}
		bList, bBits, bLazy := ops[steps].List, ops[steps].Bits, ops[steps].LazyBits
		if steps == sib {
			bList, bBits, bLazy = nl, nbits, nil
		}
		var al []graph.VertexID
		switch {
		case steps == 1:
			al = boundedPrefix(aList, m.freeBound(plan.Base, len(aList), limit), limit)
		case steps == 0:
			// Alias plan: candidates are a bounded prefix of an existing set.
			c := int64(len(boundedPrefix(aList, m.freeBound(plan.Base, len(aList), limit), limit)))
			for _, j := range plan.Distinct {
				if u := m.matched[j]; u < limit && setops.Contains(aList, u) {
					c--
				}
			}
			count += c
			continue
		default:
			aList = m.foldLeaf(plan, setops.Operand{List: aList, Bits: aBits, LazyBits: aLazy}, sib, nl, nbits, &elems)
			aBits, aLazy = nil, nil
			al = aList
			if limit != setops.NoLimit {
				al = setops.Bound(aList, limit)
			}
		}
		elems += int64(len(aList) + len(bList))
		var c int
		if sub {
			c = k.disp.SubtractCount(setops.Operand{List: al, Bits: aBits, LazyBits: aLazy}, setops.Operand{List: bList, Bits: bBits, LazyBits: bLazy})
		} else {
			bl := boundedPrefix(bList, m.freeBound(lastRef, len(bList), limit), limit)
			c = k.disp.IntersectCount(setops.Operand{List: al, Bits: aBits, LazyBits: aLazy}, setops.Operand{List: bl, Bits: bBits, LazyBits: bLazy})
		}
		for _, j := range plan.Distinct {
			u := m.matched[j]
			if u >= limit || !setops.Contains(al, u) {
				continue
			}
			has := setops.Contains(bList, u)
			if bBits != nil {
				has = setops.BitsetHas(bBits, u)
			}
			if has != sub {
				c--
			}
		}
		count += int64(c)
	}
	m.res.TasksPerDepth[d] += tasks
	m.res.TasksPerDepth[d+1] += count
	m.res.Embeddings += count
	m.res.IntermediateLinesPerDepth[d] += lines * tasks
	m.res.SetOpElements += elems
}

// foldLeaf runs every fold step of the leaf plan but the last, from base,
// into the scratch buffers and returns the result, advancing *elems by
// the set-op elements the steps stream. The operand at index sib of
// kern.leafOps is the sibling's neighbour list nl (hub bitset nbits).
func (m *Miner) foldLeaf(plan *pattern.Plan, cur setops.Operand, sib int, nl []graph.VertexID, nbits []uint64, elems *int64) []graph.VertexID {
	for j := 1; j < len(plan.Steps); j++ {
		operand := m.kern.leafOps[j]
		if j == sib {
			operand = setops.Operand{List: nl, Bits: nbits}
		}
		*elems += int64(len(cur.List) + len(operand.List))
		var dst []graph.VertexID
		if j%2 == 1 {
			dst = m.scratch[:0]
		} else {
			dst = m.scratch2[:0]
		}
		if plan.Steps[j-1].Sub {
			dst = m.kern.disp.Subtract(dst, cur, operand)
		} else {
			dst = m.kern.disp.Intersect(dst, cur, operand)
		}
		if j%2 == 1 {
			m.scratch = dst
		} else {
			m.scratch2 = dst
		}
		cur = setops.Operand{List: dst}
	}
	return cur.List
}
