// Package setops implements the sorted-set operations that pattern-aware
// graph mining is built from: intersection and subtraction of ascending
// vertex-id arrays, plus bounded variants used for symmetry breaking and a
// segment-based cost model mirroring the accelerator's functional units.
//
// All inputs must be strictly ascending; outputs are strictly ascending.
package setops

// VertexID mirrors graph.VertexID without importing it, keeping this
// package dependency-free.
type VertexID = int32

// IntsPerLine is the number of 4-byte vertex ids per 64-byte cache line,
// the granularity of the paper's Table 2 accounting and of the
// accelerator's divider units.
const IntsPerLine = 16

// Intersect appends a ∩ b to dst and returns the extended slice. It uses a
// merge walk, switching to galloping when the inputs are very unbalanced.
func Intersect(dst, a, b []VertexID) []VertexID {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > 32*len(a) {
		return gallopIntersect(dst, a, b)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// gallopIntersect intersects a small set a against a much larger set b by
// exponential search, the standard technique for skewed adjacency lists.
func gallopIntersect(dst, small, big []VertexID) []VertexID {
	lo := 0
	for _, x := range small {
		// Exponential probe from lo.
		step := 1
		hi := lo
		for hi < len(big) && big[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(big) {
			hi = len(big)
		}
		k := lo + lowerBound(big[lo:hi], x)
		if k < len(big) && big[k] == x {
			dst = append(dst, x)
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(big) {
			break
		}
	}
	return dst
}

// gallopIntersectCount is gallopIntersect counting |small ∩ big| and
// how many of its elements are below limit instead of appending them.
func gallopIntersectCount(small, big []VertexID, limit VertexID) (n, under int) {
	lo := 0
	for _, x := range small {
		step := 1
		hi := lo
		for hi < len(big) && big[hi] < x {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(big) {
			hi = len(big)
		}
		k := lo + lowerBound(big[lo:hi], x)
		if k < len(big) && big[k] == x {
			n++
			under += below(x, limit)
			lo = k + 1
		} else {
			lo = k
		}
		if lo >= len(big) {
			break
		}
	}
	return n, under
}

// Subtract appends a \ b to dst and returns the extended slice.
func Subtract(dst, a, b []VertexID) []VertexID {
	i, j := 0, 0
	for i < len(a) {
		if j >= len(b) || a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else if a[i] > b[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return dst
}

// below is 1 when x < limit and 0 otherwise, without a branch: both are
// vertex ids in [0, NoLimit], so x-limit cannot overflow and its sign
// bit is the comparison.
func below(x, limit VertexID) int { return int(uint32(x-limit) >> 31) }

// intersectCount reports |a ∩ b| and how many of its elements are below
// limit, by the merge or gallop walk Intersect takes, in one pass and
// without materializing the result.
func intersectCount(a, b []VertexID, limit VertexID) (n, under int) {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > gallopRatio*len(a) {
		return gallopIntersectCount(a, b, limit)
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			under += below(a[i], limit)
			i++
			j++
		}
	}
	return n, under
}

// subtractCount reports |a \ b| and how many of its elements are below
// limit, by Subtract's merge walk without materializing the result.
func subtractCount(a, b []VertexID, limit VertexID) (n, under int) {
	i, j := 0, 0
	for i < len(a) {
		if j >= len(b) || a[i] < b[j] {
			n++
			under += below(a[i], limit)
			i++
		} else if a[i] > b[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return n, under
}

// lowerBound returns the index of the first element of s that is >= x
// (len(s) if none): a hand-written binary search, since the closure
// sort.Search takes is a call per probe on the miner's hottest path.
func lowerBound(s []VertexID, x VertexID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Bound returns the prefix of s whose elements are strictly less than
// limit. Mining schedules use this for symmetry-breaking truncation
// (Algorithm 1's `break` when u_k > u_{k-1}): because sets are ascending,
// truncation is a binary search, not a scan.
func Bound(s []VertexID, limit VertexID) []VertexID {
	return s[:lowerBound(s, limit)]
}

// Contains reports whether sorted set s contains x.
func Contains(s []VertexID, x VertexID) bool {
	k := lowerBound(s, x)
	return k < len(s) && s[k] == x
}

// Lines reports the number of cache lines occupied by a set of n vertex
// ids (Table 2 units).
func Lines(n int) int {
	return (n + IntsPerLine - 1) / IntsPerLine
}

// SegmentPairs models the accelerator's fine-grained set-operation cost:
// vertex sets are cut into 16-int segments by divider units, and only
// paired segments (with overlapping value ranges) enter intersection units
// (§5.1.1, following FINGERS). For a merge-based operation the number of
// segment pairs processed is bounded by the total number of segments of
// both inputs, which is the cost model used by the PE pipeline.
func SegmentPairs(lenA, lenB int) int {
	p := Lines(lenA) + Lines(lenB)
	if p == 0 {
		return 0
	}
	return p
}
