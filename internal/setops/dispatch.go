package setops

import (
	mathbits "math/bits"
)

// NoLimit stands for an absent symmetry-breaking bound. Vertex ids are
// < math.MaxInt32 (the graph builder caps the vertex count at int32
// range), so no valid element ever reaches it.
const NoLimit = VertexID(1<<31 - 1)

// gallopRatio is the size imbalance beyond which the list kernels switch
// from a merge walk to galloping; it mirrors the threshold inside
// Intersect/IntersectCount.
const gallopRatio = 32

// Operand is one input of a dispatched set operation: an ascending vertex
// list, optionally backed by a word-packed bitset view of the same set.
//
// Bits is a prebuilt bitset (a graph.HubIndex entry for a hub vertex's
// adjacency). LazyBits, when non-nil, builds (or returns an already built)
// bitset on demand; the dispatcher only invokes it after deciding a bitmap
// kernel is the cheapest plan, so callers can amortize the build across
// many operations on the same set without paying for it when the bitset
// would go unused.
type Operand struct {
	List     []VertexID
	Bits     []uint64
	LazyBits func() []uint64
}

// hasBits reports whether a bitset view is available (possibly lazily).
func (o *Operand) hasBits() bool { return o.Bits != nil || o.LazyBits != nil }

// bitset materializes the bitset view. Call only after hasBits.
func (o *Operand) bitset() []uint64 {
	if o.Bits != nil {
		return o.Bits
	}
	return o.LazyBits()
}

// Stats counts kernel selections made by a Dispatcher. It is plain data:
// callers that share a Dispatcher across goroutines must merge per-worker
// copies instead (mine.ParallelCount gives each worker its own Miner and
// therefore its own Dispatcher).
type Stats struct {
	MergeOps  int64
	GallopOps int64
	BitmapOps int64
}

// Add accumulates other into s (for merging per-worker copies).
func (s *Stats) Add(other Stats) {
	s.MergeOps += other.MergeOps
	s.GallopOps += other.GallopOps
	s.BitmapOps += other.BitmapOps
}

// Dispatcher adaptively routes set operations to the merge, gallop, or
// bitmap kernel by comparing per-kernel cost estimates: a merge walk
// streams both lists (cost |a|+|b|), galloping binary-searches the smaller
// list into the larger (cost |small|·log₂|big|, worthwhile only past
// gallopRatio imbalance), and a bitmap probe streams just the non-bitset
// side (cost |probe|). Bitset build cost is not modeled: prebuilt hub
// bitsets are free at operation time, and lazy bitsets are amortized by
// the caller across sibling operations.
//
// The zero value is ready to use. Dispatchers are not safe for concurrent
// use; give each worker its own.
type Dispatcher struct {
	Stats Stats
}

// log2 returns ⌈log₂ n⌉ for n ≥ 1 (bit length), the per-element cost
// factor of a galloping search.
func log2(n int) int { return mathbits.Len(uint(n)) }

// listCost estimates the cheaper of merge and gallop for two list
// operands, mirroring the selection inside Intersect.
func listCost(la, lb int) int {
	small, big := la, lb
	if small > big {
		small, big = big, small
	}
	cost := la + lb
	if big > gallopRatio*small {
		if g := small * log2(big); g < cost {
			cost = g
		}
	}
	return cost
}

// countListKernel attributes the fallback list kernel in Stats using the
// same imbalance rule the list kernels apply internally.
func (d *Dispatcher) countListKernel(la, lb int) {
	small, big := la, lb
	if small > big {
		small, big = big, small
	}
	if big > gallopRatio*small {
		d.Stats.GallopOps++
	} else {
		d.Stats.MergeOps++
	}
}

// bitmapPlan picks the cheaper bitmap formulation (probe a's list against
// b's bitset, or vice versa) and reports whether it beats the best list
// kernel. It returns the probe list and the bitset-side operand.
func bitmapPlan(a, b *Operand) (probe []VertexID, bitsSide *Operand, ok bool) {
	la, lb := len(a.List), len(b.List)
	best := listCost(la, lb)
	// Prefer probing the smaller list; only sides with a bitset view can
	// serve as the bitset side.
	if b.hasBits() && (!a.hasBits() || la <= lb) {
		if la < best {
			return a.List, b, true
		}
		return nil, nil, false
	}
	if a.hasBits() && lb < best {
		return b.List, a, true
	}
	return nil, nil, false
}

// Intersect appends a ∩ b to dst via the cheapest kernel.
func (d *Dispatcher) Intersect(dst []VertexID, a, b Operand) []VertexID {
	if len(a.List) == 0 || len(b.List) == 0 {
		return dst
	}
	if probe, bs, ok := bitmapPlan(&a, &b); ok {
		d.Stats.BitmapOps++
		return IntersectBitmap(dst, probe, bs.bitset())
	}
	d.countListKernel(len(a.List), len(b.List))
	return Intersect(dst, a.List, b.List)
}

// Subtract appends a \ b to dst via the cheapest kernel. Only b's bitset
// view helps: the output must preserve a's order, so a's list is always
// the streamed side.
func (d *Dispatcher) Subtract(dst []VertexID, a, b Operand) []VertexID {
	if len(a.List) == 0 {
		return dst
	}
	if len(b.List) == 0 {
		return append(dst, a.List...)
	}
	if b.hasBits() {
		d.Stats.BitmapOps++
		return SubtractBitmap(dst, a.List, b.bitset())
	}
	d.Stats.MergeOps++
	return Subtract(dst, a.List, b.List)
}
