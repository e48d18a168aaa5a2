package mine

import (
	"math/bits"
	"slices"

	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/setops"
)

// storedBitsMinLen is the smallest stored candidate set worth mirroring
// into a scratch bitset for a dispatched operation: building and later
// clearing cost 2·|set|, which a single bitmap probe against it already
// roughly repays. The counting leaf's per-batch bitset does not use it:
// every sibling of the batch probes that one (see countLeaves).
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
	// leafBits is the counting leaf's scratch bitset: it mirrors the
	// last step's parent-constant input for one leaf-parent batch when
	// that input has no hub or alias bits (see countLeaves).
	leafBits []uint64
	// lazy[d] is a prebuilt closure returning the (built-on-demand)
	// scratch bitset of sets[d]; prebuilding avoids a closure allocation
	// per operand in the hot loop.
	lazy []func() []uint64
	// leafOps holds the counting leaf's operands, base first, resolved
	// once per leaf parent (see countLeaves).
	leafOps []setops.Operand
	// batched reports that the counting leaf runs in leaf-parent
	// batches (countLeaves): its plan's base is not N(v_d), the leaf
	// parent's own neighbour list. Only a depth-2 pattern's leaf, among
	// the census and catalog schedules, has that base; extend
	// materializes it.
	batched bool
	// clique is the schedule's depth when it has clique shape and depth
	// 3 or 4, so counting roots run the local-graph pass (countTriangles,
	// countFourCliques), else 0.
	clique int
	// The 4-clique pass's scratch, allocated on first use: local[x] is
	// 1 + x's index in the root's N(v) (0 outside it), rows holds one
	// bitset row over the root's lower neighbours L per element of L,
	// and deg[i] is |N(L[i])|.
	local []int32
	rows  []uint64
	deg   []int32
	// rowBound is the largest |L| the 4-clique pass takes (localRowBound;
	// tests lower it); a root with more lower neighbours runs the list
	// path.
	rowBound int
}

// localRowBound bounds the 4-clique pass's rows to localRowBound² bits
// (32 KB) per miner. Every analogue's largest lower degree is below it
// (or's is 477).
const localRowBound = 512

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
	leaf := m.s.Plans[n-1].Base
	k.batched = leaf.Kind != pattern.RefNeighbor || leaf.Pos != n-2
	if (n == 3 || n == 4) && cliqueShaped(m.s) {
		k.clique = n
	}
	k.rowBound = localRowBound
}

// SetHybridKernels toggles the hybrid bitmap/gallop kernel layer, the
// counting-only leaf path and the local-graph clique pass (on by
// default). Disabling reproduces the merge/gallop-only baseline exactly
// — counts and all Result statistics are identical either way — and
// exists for benchmarks and ablations.
func (m *Miner) SetHybridKernels(on bool) { m.kern.enabled = on }

// KernelStats reports the kernels selected so far: the dispatcher's
// choices, plus one bitmap probe per counted leaf task whose two bounded
// inputs are both non-empty (tc's local-graph pass counts the same), and
// one bitmap op per position-2 task of the 4-clique pass.
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
// runs. When no fold step but the last reads N(v_d), it also folds those
// steps once. Of the last step's two inputs, a (the base or the fold of
// every other step) and b (the last operand), at most one reads
// matched[d]; the other one, P, gets one bitset for the batch (leafBits).
// Per sibling it checks distinctness, runs any sibling-dependent fold
// steps (foldLeaf), takes both inputs' bounded prefixes (freeBound) and
// counts the last step with one bitmap probe: the shorter list into the
// other side's bitset, where the sibling's N(v_d) offers hub bits, else
// the sibling's side into P's. The Distinct exclusions are membership
// probes. Every count is a set cardinality, so each Result statistic
// equals the materializing leaf's; the statistics accrue in closed form.
func (m *Miner) countLeaves(d int, cands []graph.VertexID) {
	if len(cands) == 0 {
		return
	}
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
	// step operand N(v_d), if any, which each sibling resolves itself (a
	// plan reads each N(v_j) at most once; the base is never N(v_d),
	// see batched).
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
	var tasks, count, elems, probes int64
	// fixed is a's list when a does not read matched[d]: the base, or the
	// fold of every step but the last, hoisted out of the sibling loop
	// with its per-sibling set-op elements in foldElems. Otherwise each
	// sibling folds a itself (perSib).
	var fixed []graph.VertexID
	var foldElems int64
	perSib := steps > 1 && sib > 0 && sib < steps
	// pIsA reports whether P is a (else b); then the other input is
	// N(v_d) itself, whose hub bits a sibling may probe instead. pBits is
	// P's bitset; filled is the prefix of P that leafBits mirrors for
	// this batch.
	pIsA := sib == steps
	var pBits []uint64
	var filled []graph.VertexID
	switch {
	case steps <= 1:
		fixed = ops[0].List
	case !perSib:
		fixed = m.foldLeaf(plan, sib, nil, nil, &foldElems)
	}
	if steps > 0 {
		lastRef, sub = plan.Steps[steps-1].Ref, plan.Steps[steps-1].Sub
		pList := ops[steps].List
		pBits = ops[steps].Bits
		if pIsA {
			pList, pBits = fixed, nil
			if steps == 1 {
				pBits = ops[0].Bits
			}
		}
		if pBits == nil {
			// Only elements below a sibling's limit are ever probed, so
			// P's prefix below the batch's largest limit suffices. This
			// partial mirror never stands in for sets[d]'s (setLive).
			maxLimit := limit0
			if last := cands[len(cands)-1]; sibBound && last < maxLimit {
				maxLimit = last
			}
			if k.leafBits == nil {
				k.leafBits = make([]uint64, k.words)
			}
			filled = setops.Bound(pList, maxLimit)
			setops.BitsetFill(k.leafBits, filled)
			pBits = k.leafBits
		}
	}
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
		// The inputs are held as bare slices: an Operand is too large to
		// live in registers, and copying one built field by field stalls
		// on store forwarding.
		var nl []graph.VertexID
		var nbits []uint64
		if sib >= 0 {
			nl = m.g.Neighbors(v)
		}
		if perSib {
			nbits = k.hub.Bits(v)
		}
		aList, al := fixed, []graph.VertexID(nil)
		switch {
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
		case steps == 1:
			al = boundedPrefix(aList, m.freeBound(plan.Base, len(aList), limit), limit)
		default:
			if perSib {
				aList = m.foldLeaf(plan, sib, nl, nbits, &elems)
			}
			al = aList
			if limit != setops.NoLimit {
				al = setops.Bound(aList, limit)
			}
		}
		bList := ops[steps].List
		if sib == steps {
			bList = nl
		}
		bl := boundedPrefix(bList, m.freeBound(lastRef, len(bList), limit), limit)
		elems += int64(len(aList) + len(bList))
		pl, ql := bl, al
		if pIsA {
			pl, ql = al, bl
		}
		// N(v_d)'s hub bits pay off only when its list is the longer one.
		var qBits []uint64
		if pIsA && len(ql) > len(pl) {
			qBits = k.hub.Bits(v)
		}
		var c int
		if len(al) > 0 && len(bl) > 0 {
			probes++
			if qBits != nil {
				c = setops.IntersectCountBitmap(pl, qBits)
			} else {
				c = setops.IntersectCountBitmap(ql, pBits)
			}
		}
		if sub {
			c = len(al) - c
		}
		for _, j := range plan.Distinct {
			u := m.matched[j]
			if u >= limit {
				continue
			}
			inP, inQ := setops.BitsetHas(pBits, u), false
			if qBits != nil {
				inQ = setops.BitsetHas(qBits, u)
			} else {
				inQ = setops.Contains(ql, u)
			}
			inA, inB := inQ, inP
			if pIsA {
				inA, inB = inP, inQ
			}
			if inA && inB != sub {
				c--
			}
		}
		count += int64(c)
	}
	if filled != nil {
		setops.BitsetClearList(k.leafBits, filled)
	}
	k.disp.Stats.BitmapOps += probes
	m.res.TasksPerDepth[d] += tasks
	m.res.TasksPerDepth[d+1] += count
	m.res.Embeddings += count
	m.res.IntermediateLinesPerDepth[d] += lines * tasks
	m.res.SetOpElements += elems + foldElems*tasks
}

// foldLeaf runs every fold step of the leaf plan but the last, from the
// base, into the scratch buffers and returns the result, advancing *elems
// by the set-op elements the steps stream. The operand at index sib of
// kern.leafOps is the sibling's neighbour list nl (hub bitset nbits).
func (m *Miner) foldLeaf(plan *pattern.Plan, sib int, nl []graph.VertexID, nbits []uint64, elems *int64) []graph.VertexID {
	cur := m.kern.leafOps[0]
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

// cliqueShaped reports whether s has the clique shape the local-graph
// pass counts: position 1 is N(v0) bounded by v0, and each later
// position d is C_{d-1} ∩ N(v_{d-1}) bounded by v_{d-1}, with no Distinct
// exclusions. The shape, not the pattern's name, picks the pass. Any
// other bound on such a position is implied, since v_{d-1} is below
// every earlier matched vertex.
func cliqueShaped(s *pattern.Schedule) bool {
	for d := 1; d < s.Depth(); d++ {
		p := &s.Plans[d]
		base, steps := pattern.SetRef{Kind: pattern.RefNeighbor, Pos: 0}, 0
		if d > 1 {
			base, steps = pattern.SetRef{Kind: pattern.RefStored, Pos: d - 1}, 1
		}
		if p.Base != base || len(p.Steps) != steps || len(p.Distinct) > 0 || !slices.Contains(p.BoundBy, d-1) {
			return false
		}
		if steps == 1 && p.Steps[0] != (pattern.Op{Ref: pattern.SetRef{Kind: pattern.RefNeighbor, Pos: d - 1}}) {
			return false
		}
	}
	return true
}

// countTriangles counts the search tree of root v of a depth-3 clique
// schedule in one pass over v's local graph, G²Miner's local-graph search
// (LGS): L = N(v)[:lower[v]] are v's candidates for position 1, marked
// once in leafBits, and each u = L[i] counts its leaves as
// |L[:i] ∩ N(u)[:lower[u]]| with one probe: L[:i] into u's hub bits when
// u is a hub and L[:i] is the shorter side, else u's lower neighbours
// into L's bits (only elements below u are probed, and those of L are
// exactly L[:i]). The Result statistics are the list
// path's, in closed form: each u's task read the stored C1 = N(v) (its
// lines and |N(v)| elements) and N(u) (|N(u)| elements). A probe is
// counted in KernelStats when both bounded inputs are non-empty.
func (m *Miner) countTriangles(v graph.VertexID) {
	k := &m.kern
	m.res.TasksPerDepth[0]++
	nv := m.g.Neighbors(v)
	l := nv[:k.lower[v]]
	if len(l) == 0 {
		return
	}
	if k.leafBits == nil {
		k.leafBits = make([]uint64, k.words)
	}
	bits := k.leafBits
	setops.BitsetFill(bits, l)
	var count, probes, elems int
	for i, u := range l {
		nu := m.g.Neighbors(u)
		elems += len(nu)
		lo := nu[:k.lower[u]]
		if i == 0 || len(lo) == 0 {
			continue
		}
		probes++
		if i < len(lo) {
			if hb := k.hub.Bits(u); hb != nil {
				count += setops.IntersectCountBitmap(l[:i], hb)
				continue
			}
		}
		count += setops.IntersectCountBitmap(lo, bits)
	}
	setops.BitsetClearList(bits, l)
	tasks := int64(len(l))
	k.disp.Stats.BitmapOps += int64(probes)
	m.res.TasksPerDepth[1] += tasks
	m.res.TasksPerDepth[2] += int64(count)
	m.res.Embeddings += int64(count)
	m.res.IntermediateLinesPerDepth[1] += int64(setops.Lines(len(nv))) * tasks
	m.res.SetOpElements += int64(len(nv))*tasks + int64(elems)
}

// countFourCliques counts the search tree of root v of a depth-4 clique
// schedule over v's local graph with G²Miner's rows, and reports false,
// counting nothing, when v has more than rowBound lower neighbours. With
// L = N(v)[:lower[v]], row[i] is the bitset over L's indices of
// L ∩ N(L[i])[:lower[L[i]]], built through the local index map; its
// members j are L[i]'s position-2 candidates, and each one's leaves are
// popcount(row[i] & row[j]). The Result statistics are the list path's
// in closed form. They read the unbounded |C2| = |N(v) ∩ N(L[i])|, which
// rows over lower neighbours do not give, so a position-1 task with
// children also counts N(L[i])'s upper part against the map. KernelStats
// counts one bitmap op per position-2 task.
func (m *Miner) countFourCliques(v graph.VertexID) bool {
	k := &m.kern
	nv := m.g.Neighbors(v)
	l := nv[:k.lower[v]]
	d := len(l)
	if d > k.rowBound {
		return false
	}
	m.res.TasksPerDepth[0]++
	if d == 0 {
		return true
	}
	if k.local == nil {
		k.local = make([]int32, m.g.NumVertices())
	}
	w := setops.BitsetWords(d)
	if len(k.deg) < d {
		// Sized for 64·w rows, so the scratch grows at most
		// rowBound/64 times.
		k.rows = make([]uint64, 64*w*w)
		k.deg = make([]int32, 64*w)
	}
	local, rows, deg := k.local, k.rows, k.deg
	for j, x := range nv {
		local[x] = int32(j + 1)
	}
	var tasks2, lines2, count, elems int64
	for i, u := range l {
		nu := m.g.Neighbors(u)
		deg[i] = int32(len(nu))
		elems += int64(len(nu))
		row := rows[i*w:][:i>>6+1]
		clear(row)
		split := k.lower[u]
		r := 0
		for _, x := range nu[:split] {
			if p := local[x]; p != 0 {
				row[(p-1)>>6] |= 1 << ((p - 1) & 63)
				r++
			}
		}
		if r == 0 {
			continue
		}
		c2 := r
		for _, x := range nu[split:] {
			if local[x] != 0 {
				c2++
			}
		}
		tasks2 += int64(r)
		lines2 += int64(setops.Lines(c2) * r)
		elems += int64(c2 * r)
		for t, word := range row {
			for word != 0 {
				j := t<<6 | bits.TrailingZeros64(word)
				word &= word - 1
				elems += int64(deg[j])
				for s, rw := range rows[j*w:][:j>>6+1] {
					count += int64(bits.OnesCount64(rw & row[s]))
				}
			}
		}
	}
	for _, x := range nv {
		local[x] = 0
	}
	k.disp.Stats.BitmapOps += tasks2
	nd := int64(d)
	m.res.TasksPerDepth[1] += nd
	m.res.TasksPerDepth[2] += tasks2
	m.res.TasksPerDepth[3] += count
	m.res.Embeddings += count
	m.res.IntermediateLinesPerDepth[1] += int64(setops.Lines(len(nv))) * nd
	m.res.IntermediateLinesPerDepth[2] += lines2
	m.res.SetOpElements += int64(len(nv))*nd + elems
	return true
}
