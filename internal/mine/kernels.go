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
	// is N(v) bounded by v (see leafBound).
	lower []int32
	// searchBounds makes leafBound always binary-search, the reference
	// the free bounds are tested against.
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

// operandHas reports membership of v in op without triggering a lazy
// bitset build.
func operandHas(op *setops.Operand, v graph.VertexID) bool {
	if op.Bits != nil {
		return setops.BitsetHas(op.Bits, v)
	}
	return setops.Contains(op.List, v)
}

// leafBound returns list, the list view of ref, truncated to elements
// below limit. When limit is the vertex ref is keyed on, the prefix is
// already known and no search runs:
//   - a stored set C_p was enumerated up to matched[p], which sits at
//     index idx[p] of the ascending sets[p], so sets[p][:idx[p]] holds
//     exactly its elements below matched[p];
//   - N(x) bounded by x is N(x)[:lower[x]], the graph's lower split.
//
// Any other limit falls back to setops.Bound.
func (m *Miner) leafBound(ref pattern.SetRef, list []graph.VertexID, limit graph.VertexID) []graph.VertexID {
	if limit == setops.NoLimit {
		return list
	}
	if m.matched[ref.Pos] == limit && !m.kern.searchBounds {
		if ref.Kind == pattern.RefStored {
			return list[:m.idx[ref.Pos]]
		}
		return list[:m.kern.lower[limit]]
	}
	return setops.Bound(list, limit)
}

// countLeaf counts the surviving candidates of leaf position d without
// materializing the final candidate set: all fold steps but the last run
// as usual into scratch buffers, the last is a counting kernel over
// bounded prefixes (leafBound), and the few Distinct exclusions are
// membership checks. Statistics accounting (task counts, intermediate
// lines, set-op elements) is bit-identical to the materializing path, and
// so is kernel selection: the dispatcher sees the same bounded lengths a
// search would produce.
func (m *Miner) countLeaf(d int) int64 {
	plan := &m.s.Plans[d]
	limit := setops.NoLimit
	for _, a := range plan.BoundBy {
		if m.matched[a] < limit {
			limit = m.matched[a]
		}
	}
	base := m.operand(plan.Base)
	if plan.Base.Kind == pattern.RefStored {
		m.res.IntermediateLinesPerDepth[d-1] += int64(setops.Lines(len(base.List)))
	}
	if len(plan.Steps) == 0 {
		// Alias plan: candidates are a bounded prefix of an existing set.
		count := int64(len(m.leafBound(plan.Base, base.List, limit)))
		for _, j := range plan.Distinct {
			if v := m.matched[j]; v < limit && setops.Contains(base.List, v) {
				count--
			}
		}
		return count
	}
	cur := base
	for i := 0; i < len(plan.Steps)-1; i++ {
		op := plan.Steps[i]
		operand := m.operand(op.Ref)
		if op.Ref.Kind == pattern.RefStored {
			m.res.IntermediateLinesPerDepth[d-1] += int64(setops.Lines(len(operand.List)))
		}
		m.res.SetOpElements += int64(len(cur.List) + len(operand.List))
		var dst []graph.VertexID
		if i%2 == 0 {
			dst = m.scratch[:0]
		} else {
			dst = m.scratch2[:0]
		}
		if op.Sub {
			dst = m.kern.disp.Subtract(dst, cur, operand)
		} else {
			dst = m.kern.disp.Intersect(dst, cur, operand)
		}
		if i%2 == 0 {
			m.scratch = dst
		} else {
			m.scratch2 = dst
		}
		cur = setops.Operand{List: dst}
	}
	last := plan.Steps[len(plan.Steps)-1]
	operand := m.operand(last.Ref)
	if last.Ref.Kind == pattern.RefStored {
		m.res.IntermediateLinesPerDepth[d-1] += int64(setops.Lines(len(operand.List)))
	}
	m.res.SetOpElements += int64(len(cur.List) + len(operand.List))
	// The kernels count over bounded prefixes; bitset views stay
	// full-set, which is exact since only elements below limit probe them.
	a := cur
	if len(plan.Steps) == 1 {
		a.List = m.leafBound(plan.Base, cur.List, limit)
	} else if limit != setops.NoLimit {
		a.List = setops.Bound(cur.List, limit)
	}
	var count int64
	if last.Sub {
		count = int64(m.kern.disp.SubtractCount(a, operand))
	} else {
		b := operand
		b.List = m.leafBound(last.Ref, operand.List, limit)
		count = int64(m.kern.disp.IntersectCount(a, b))
	}
	for _, j := range plan.Distinct {
		v := m.matched[j]
		if v >= limit || !setops.Contains(a.List, v) {
			continue
		}
		if operandHas(&operand, v) != last.Sub {
			count--
		}
	}
	return count
}
