// Package gen provides deterministic synthetic graph generators.
//
// The Shogun paper evaluates on six SNAP datasets that are not shipped with
// this repository. The generators here produce analogues whose structural
// axes (size, average degree, degree skew) match the originals at reduced
// scale, so the evaluation's qualitative behaviour is preserved. All
// generators are deterministic for a given seed.
package gen

import (
	"math"
	"math/rand"

	"shogun/internal/graph"
)

// ErdosRenyi generates a G(n, m) random graph: m edges sampled uniformly
// (duplicates and self loops are dropped by the CSR builder, so the
// realized edge count can be slightly lower).
func ErdosRenyi(n, m int, seed int64) *graph.Graph {
	mustValidate(ValidateErdosRenyi(n, m))
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := graph.VertexID(rng.Intn(n))
		v := graph.VertexID(rng.Intn(n))
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.MustNew(n, edges)
}

// RMAT generates a recursive-matrix graph (Chakrabarti et al.). Higher `a`
// relative to b, c, d concentrates edges on low-numbered vertices,
// producing the heavy-tailed, highly skewed degree distributions typical of
// social and web graphs (Youtube/LiveJournal/Orkut analogues).
//
// n is rounded up to the next power of two internally; vertices beyond the
// requested n are folded back in, preserving skew.
func RMAT(n, m int, a, b, c float64, seed int64) *graph.Graph {
	mustValidate(ValidateRMAT(n, m, a, b, c))
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	// Each level draws one r and picks a quadrant: [0, a) top-left (no
	// bit), [a, ab) top-right (v's bit), [ab, abc) bottom-left (u's bit),
	// [abc, 1) bottom-right (both). With b, c >= 0 the cut points ascend,
	// so u's bit is r >= ab and v's bit is the parity of the cut points
	// at or below r, which sets the bits without a branch.
	ab := a + b
	abc := ab + c
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		var u, v int
		for l := 0; l < levels; l++ {
			r := rng.Float64()
			u |= bit(r >= ab) << l
			v |= (bit(r >= a) ^ bit(r >= ab) ^ bit(r >= abc)) << l
		}
		edges = append(edges, graph.Edge{U: graph.VertexID(u % n), V: graph.VertexID(v % n)})
	}
	return graph.MustNew(n, edges)
}

// bit is 1 for true and 0 for false; the compiler emits a flag move, not
// a branch.
func bit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// BarabasiAlbert generates a preferential-attachment graph: each new vertex
// attaches k edges to existing vertices chosen proportionally to degree.
// Produces a power-law tail with moderate skew (AstroPh analogue when
// combined with triangle closure, see PowerLawCluster).
func BarabasiAlbert(n, k int, seed int64) *graph.Graph {
	mustValidate(ValidateBarabasiAlbert(n, k))
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n*k)
	// targets holds one entry per edge endpoint, so uniform sampling from
	// it is degree-proportional sampling.
	targets := make([]graph.VertexID, 0, 2*n*k)
	start := k + 1
	if start > n {
		start = n
	}
	// Seed clique over the first start vertices.
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
			targets = append(targets, graph.VertexID(i), graph.VertexID(j))
		}
	}
	for v := start; v < n; v++ {
		for e := 0; e < k; e++ {
			var u graph.VertexID
			if len(targets) == 0 {
				u = graph.VertexID(rng.Intn(v))
			} else {
				u = targets[rng.Intn(len(targets))]
			}
			edges = append(edges, graph.Edge{U: graph.VertexID(v), V: u})
			targets = append(targets, graph.VertexID(v), u)
		}
	}
	return graph.MustNew(n, edges)
}

// PowerLawCluster is Barabási–Albert with triangle closure (Holme–Kim): with
// probability p each attachment step instead connects to a random neighbor
// of the previously chosen target, raising the clustering coefficient. Good
// analogue for collaboration networks (AstroPh) whose clique density is
// much higher than plain BA graphs.
func PowerLawCluster(n, k int, p float64, seed int64) *graph.Graph {
	mustValidate(ValidatePowerLawCluster(n, k, p))
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]graph.VertexID, n)
	targets := make([]graph.VertexID, 0, 2*n*k)
	edges := make([]graph.Edge, 0, n*k)
	addEdge := func(u, v graph.VertexID) {
		if u == v {
			return
		}
		edges = append(edges, graph.Edge{U: u, V: v})
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		targets = append(targets, u, v)
	}
	start := k + 1
	if start > n {
		start = n
	}
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			addEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	for v := start; v < n; v++ {
		var last graph.VertexID = -1
		for e := 0; e < k; e++ {
			var u graph.VertexID
			if last >= 0 && rng.Float64() < p && len(adj[last]) > 0 {
				u = adj[last][rng.Intn(len(adj[last]))]
			} else if len(targets) > 0 {
				u = targets[rng.Intn(len(targets))]
			} else {
				u = graph.VertexID(rng.Intn(v))
			}
			addEdge(graph.VertexID(v), u)
			last = u
		}
	}
	return graph.MustNew(n, edges)
}

// ChungLu generates a random graph with an expected power-law degree
// sequence: vertex i has weight ∝ (i+10)^(-alpha), truncated so no
// expected degree exceeds maxDeg. m edges are drawn with endpoint
// probability proportional to weight. Unlike R-MAT (whose recursive fold
// concentrates mass on one mega-hub at small scale), Chung–Lu spreads the
// heavy tail over many hubs — matching the hub structure of large social
// graphs like LiveJournal and Orkut at reduced scale.
func ChungLu(n, m int, alpha float64, maxDeg int, seed int64) *graph.Graph {
	mustValidate(ValidateChungLu(n, m, alpha, maxDeg))
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = math.Pow(float64(i+10), -alpha)
		total += w[i]
	}
	// Truncate: expected degree of i ≈ 2m·w_i/total.
	capW := float64(maxDeg) * total / float64(2*m)
	adjusted := 0.0
	for i := range w {
		if w[i] > capW {
			w[i] = capW
		}
		adjusted += w[i]
	}
	// Cumulative distribution for endpoint sampling.
	cum := make([]float64, n)
	run := 0.0
	for i := range w {
		run += w[i]
		cum[i] = run
	}
	sample := func() graph.VertexID {
		x := rng.Float64() * run
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return graph.VertexID(lo)
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: sample(), V: sample()})
	}
	return graph.MustNew(n, edges)
}

// NearRegular generates a graph where every vertex has degree close to k
// with small variance: each vertex draws k/2 partners uniformly. Low skew
// and low diameter variance make it the Patents analogue (sparse, low
// degree variance).
func NearRegular(n, k int, seed int64) *graph.Graph {
	mustValidate(ValidateNearRegular(n, k))
	rng := rand.New(rand.NewSource(seed))
	half := k / 2
	if half < 1 {
		half = 1
	}
	edges := make([]graph.Edge, 0, n*half)
	for v := 0; v < n; v++ {
		for e := 0; e < half; e++ {
			u := rng.Intn(n)
			edges = append(edges, graph.Edge{U: graph.VertexID(v), V: graph.VertexID(u)})
		}
	}
	return graph.MustNew(n, edges)
}

// WattsStrogatz generates a small-world ring lattice with k neighbors per
// side and rewiring probability p.
func WattsStrogatz(n, k int, p float64, seed int64) *graph.Graph {
	mustValidate(ValidateWattsStrogatz(n, k, p))
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, n*k)
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			u := (v + j) % n
			if rng.Float64() < p {
				u = rng.Intn(n)
			}
			edges = append(edges, graph.Edge{U: graph.VertexID(v), V: graph.VertexID(u)})
		}
	}
	return graph.MustNew(n, edges)
}

// Clique generates the complete graph on n vertices (testing helper).
func Clique(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, graph.Edge{U: graph.VertexID(i), V: graph.VertexID(j)})
		}
	}
	return graph.MustNew(n, edges)
}

// Grid generates the rows×cols 2-D lattice (testing helper: zero triangles,
// many 4-cycles).
func Grid(rows, cols int) *graph.Graph {
	id := func(r, c int) graph.VertexID { return graph.VertexID(r*cols + c) }
	var edges []graph.Edge
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, graph.Edge{U: id(r, c), V: id(r+1, c)})
			}
		}
	}
	return graph.MustNew(rows*cols, edges)
}
