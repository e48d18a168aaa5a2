package setops

import (
	"math/rand"
	"testing"
)

func benchSets(n, m, universe int, seed int64) (a, b []VertexID) {
	rng := rand.New(rand.NewSource(seed))
	return randSet(rng, n, universe), randSet(rng, m, universe)
}

func BenchmarkIntersectMerge(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 1)
	dst := make([]VertexID, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], x, y)
	}
}

func BenchmarkIntersectGallop(b *testing.B) {
	x, y := benchSets(20, 40000, 200000, 2)
	dst := make([]VertexID, 0, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], x, y)
	}
}

func BenchmarkIntersectCount(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IntersectCount(x, y)
	}
}

func BenchmarkSubtract(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 4)
	dst := make([]VertexID, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Subtract(dst[:0], x, y)
	}
}

// Hub-shaped benchmarks: operand shapes mimicking a skewed R-MAT
// adjacency — a moderate candidate list intersected against a hub
// vertex's long, low-id-clustered neighbor list. These pin the bitmap
// kernels' advantage at the densities where the miner dispatches to
// them; regressions show up against the baselines/quick.json trajectory.

// rmatLikeSet draws n distinct ids skewed toward low ids (quadratic
// bias), the shape R-MAT initiator matrices produce.
func rmatLikeSet(rng *rand.Rand, n, universe int) []VertexID {
	m := map[VertexID]bool{}
	for len(m) < n {
		f := rng.Float64()
		m[VertexID(f*f*float64(universe))] = true
	}
	out := make([]VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sortIDs(out)
	return out
}

func sortIDs(v []VertexID) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// hubShape returns a candidate list, a hub adjacency list, and the hub's
// prebuilt bitset over a 16K-vertex universe.
func hubShape(listLen, hubDeg int, seed int64) (list, hub []VertexID, bits []uint64) {
	const universe = 1 << 14
	rng := rand.New(rand.NewSource(seed))
	list = rmatLikeSet(rng, listLen, universe)
	hub = rmatLikeSet(rng, hubDeg, universe)
	bits = make([]uint64, BitsetWords(universe))
	BitsetFill(bits, hub)
	return list, hub, bits
}

func BenchmarkIntersectHubMerge(b *testing.B) {
	list, hub, _ := hubShape(400, 6000, 21)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Intersect(dst[:0], list, hub)
	}
}

func BenchmarkIntersectHubBitmap(b *testing.B) {
	list, _, bits := hubShape(400, 6000, 21)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = IntersectBitmap(dst[:0], list, bits)
	}
}

func BenchmarkSubtractHubMerge(b *testing.B) {
	list, hub, _ := hubShape(400, 6000, 23)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = Subtract(dst[:0], list, hub)
	}
}

func BenchmarkSubtractHubBitmap(b *testing.B) {
	list, _, bits := hubShape(400, 6000, 23)
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = SubtractBitmap(dst[:0], list, bits)
	}
}

// BenchmarkDispatcherHubIntersect measures the adaptive path end to end
// (cost estimate + bitmap kernel) against a hub operand.
func BenchmarkDispatcherHubIntersect(b *testing.B) {
	list, hub, bits := hubShape(400, 6000, 24)
	a := Operand{List: list}
	h := Operand{List: hub, Bits: bits}
	var d Dispatcher
	dst := make([]VertexID, 0, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.Intersect(dst[:0], a, h)
	}
}

// BenchmarkDispatcherBalancedFallback pins the dispatch overhead when no
// bitset view exists and the merge walk is chosen (the seed hot path).
func BenchmarkDispatcherBalancedFallback(b *testing.B) {
	x, y := benchSets(1000, 1200, 8000, 25)
	a, c := Operand{List: x}, Operand{List: y}
	var d Dispatcher
	dst := make([]VertexID, 0, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = d.Intersect(dst[:0], a, c)
	}
}

var countSink int

// BenchmarkIntersectCountBitmap probes a list against a bitset that
// holds about half the universe, so each probe's outcome is a coin flip:
// the density at which a kernel that branches on the tested bit
// mispredicts most.
func BenchmarkIntersectCountBitmap(b *testing.B) {
	const universe = 1 << 14
	rng := rand.New(rand.NewSource(26))
	list := randSet(rng, 1000, universe)
	bits := make([]uint64, BitsetWords(universe))
	for i := range bits {
		bits[i] = rng.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		countSink = IntersectCountBitmap(list, bits)
	}
}
