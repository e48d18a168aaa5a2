// Bitmap set kernels: list×bitset intersection and subtraction over
// word-packed bitsets, the dense-operand counterpart of the merge/gallop
// kernels in setops.go. G²Miner-style hybrid mining uses these for hub
// vertices, whose adjacency bitsets are prebuilt (graph.HubIndex) or built
// once and reused across sibling tasks (mine's kernel context).
//
// A bitset is a []uint64 with bit x of word x/64 set iff x is a member.
// All list inputs are strictly ascending and all elements must lie within
// the bitset's universe (len(bits)*64). Outputs are strictly ascending.
package setops

import "slices"

// BitsetWords reports the number of uint64 words a bitset over the
// universe [0, n) occupies.
func BitsetWords(n int) int { return (n + 63) / 64 }

// BitsetHas reports whether bit x is set.
func BitsetHas(bits []uint64, x VertexID) bool {
	return bits[uint32(x)>>6]&(1<<(uint32(x)&63)) != 0
}

// BitsetFill sets the bit of every element of list.
func BitsetFill(bits []uint64, list []VertexID) {
	for _, x := range list {
		bits[uint32(x)>>6] |= 1 << (uint32(x) & 63)
	}
}

// BitsetClearList clears the bit of every element of list. Clearing by
// member list (rather than zeroing the whole array) keeps scratch-bitset
// maintenance proportional to the set size, not the graph size.
func BitsetClearList(bits []uint64, list []VertexID) {
	for _, x := range list {
		bits[uint32(x)>>6] &^= 1 << (uint32(x) & 63)
	}
}

// IntersectBitmap appends list ∩ bits to dst and returns the extended
// slice: each element of list is tested against the bitset in O(1).
// Every element is written and the tested bit advances the output
// length, so the loop has no data-dependent branch to mispredict; dst is
// grown to hold len(list) more elements first (callers that reuse
// buffers of the largest set's size never reallocate).
func IntersectBitmap(dst, list []VertexID, bits []uint64) []VertexID {
	n := len(dst)
	dst = slices.Grow(dst, len(list))[:n+len(list)]
	for _, x := range list {
		dst[n] = x
		n += int(bits[uint32(x)>>6] >> (uint32(x) & 63) & 1)
	}
	return dst[:n]
}

// IntersectCountBitmap reports |list ∩ bits| without materializing.
// Like IntersectBitmap it adds the tested bit instead of branching on it.
// It is kept out of line: inlined into the miner's counting leaf, whose
// sibling loop holds many live values, its loop state spilled to the
// stack on every element.
//
//go:noinline
func IntersectCountBitmap(list []VertexID, bits []uint64) int {
	n := 0
	for _, x := range list {
		n += int(bits[uint32(x)>>6] >> (uint32(x) & 63) & 1)
	}
	return n
}

// SubtractBitmap appends list \ bits to dst and returns the extended
// slice, branch-free and growing dst like IntersectBitmap.
func SubtractBitmap(dst, list []VertexID, bits []uint64) []VertexID {
	n := len(dst)
	dst = slices.Grow(dst, len(list))[:n+len(list)]
	for _, x := range list {
		dst[n] = x
		n += int(^bits[uint32(x)>>6] >> (uint32(x) & 63) & 1)
	}
	return dst[:n]
}

// countBitmap reports how many elements of list have their bit in bits
// set, or clear when flip is all ones, and how many of those are below
// limit: the count-only form of IntersectBitmap (flip 0) and
// SubtractBitmap (flip ^0), branch-free like them.
func countBitmap(list []VertexID, bits []uint64, flip uint64, limit VertexID) (n, under int) {
	for _, x := range list {
		hit := int((bits[uint32(x)>>6] ^ flip) >> (uint32(x) & 63) & 1)
		n += hit
		under += hit & below(x, limit)
	}
	return n, under
}
