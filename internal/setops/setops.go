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

// IntersectCount reports |a ∩ b| without materializing the result.
func IntersectCount(a, b []VertexID) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > 32*len(a) {
		n := 0
		lo := 0
		for _, x := range a {
			k := lo + lowerBound(b[lo:], x)
			if k < len(b) && b[k] == x {
				n++
				lo = k + 1
			} else {
				lo = k
			}
			if lo >= len(b) {
				break
			}
		}
		return n
	}
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
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

// LowerBound returns the suffix of s whose elements are strictly greater
// than limit.
func LowerBound(s []VertexID, limit VertexID) []VertexID {
	k := lowerBound(s, limit)
	if k < len(s) && s[k] == limit {
		k++
	}
	return s[k:]
}

// Remove appends a with value x removed (if present) to dst.
func Remove(dst, a []VertexID, x VertexID) []VertexID {
	k := lowerBound(a, x)
	dst = append(dst, a[:k]...)
	if k < len(a) && a[k] == x {
		k++
	}
	return append(dst, a[k:]...)
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
