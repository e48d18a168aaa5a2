// Package cluster models a multi-chip Shogun system: N accelerator
// chips driven by one shared discrete-event engine, a static graph
// partitioner that assigns root vertices to chips, an inter-chip
// interconnect modeled as a second NoC level, and chip-level task-tree
// splitting with work stealing (an overloaded chip exports a carved
// depth-1 subtree; an idle chip adopts it over the interconnect, paying
// transfer latency).
//
// The design follows G²Miner's multi-device recipe: the graph itself is
// replicated on every chip (each chip's memory system holds the full
// CSR), while the *work* — the root-vertex space — is partitioned. All
// chips share one deterministic clock (UpDown's event-driven-at-scale
// model), so a cluster run is exactly as reproducible as a single-chip
// run: a 1-chip cluster in replicated mode is bit-identical to the
// single-chip engine, a property the differential suite pins.
package cluster

import (
	"fmt"

	"shogun/internal/graph"
)

// Mode names a static partitioning strategy.
type Mode string

const (
	// ModeReplicate is the baseline: the root space is dealt to chips in
	// chunked round-robin order, the same pattern the single-chip system
	// scheduler uses across PEs. One chip in this mode reproduces the
	// single-chip engine bit-exactly.
	ModeReplicate Mode = "replicate"
	// ModeHash assigns each vertex to hash(v, seed) mod chips.
	ModeHash Mode = "hash"
	// ModeRange assigns contiguous, evenly sized vertex ranges to chips
	// (the seed is ignored: ranges are fully determined by V and N).
	ModeRange Mode = "range"
)

// ParseMode maps the -partition flag spelling to a Mode; the empty
// string selects the replicate baseline.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "":
		return ModeReplicate, nil
	case ModeReplicate, ModeHash, ModeRange:
		return Mode(s), nil
	}
	return ModeReplicate, fmt.Errorf("cluster: unknown partition mode %q (want replicate, hash or range)", s)
}

// Partition is a static assignment of every vertex to exactly one chip,
// with the cut bookkeeping quality metrics and tests read.
type Partition struct {
	Mode  Mode
	Chips int
	Seed  int64

	// Owner maps each vertex to its chip.
	Owner []int32
	// Roots lists each chip's owned vertices in ascending order — the
	// root set its system scheduler deals to PEs.
	Roots [][]graph.VertexID
	// CutEdges counts undirected edges whose endpoints live on different
	// chips.
	CutEdges int64
	// ExtDeg[i] counts adjacency entries of chip i's vertices whose far
	// endpoint is remote; Σ ExtDeg == 2 × CutEdges.
	ExtDeg []int64
	// IntDeg[i] counts chip-internal adjacency entries; Σ (IntDeg +
	// ExtDeg) equals the graph's total degree (2 × edges).
	IntDeg []int64
}

// rootChunk mirrors the single-chip system scheduler's chunked
// round-robin dispatch granularity (accel root assignment).
const rootChunk = 8

// splitmix64 is the avalanche mixer of Vigna's SplitMix64 — a cheap,
// seedable, well-distributed vertex hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewPartition statically assigns g's vertices to chips. Every vertex is
// assigned exactly once, and no chip is left empty unless the graph has
// fewer vertices than chips (hash assignments are rebalanced
// deterministically when chance empties a chip).
func NewPartition(g *graph.Graph, mode Mode, chips int, seed int64) (*Partition, error) {
	if chips < 1 {
		return nil, fmt.Errorf("cluster: need at least one chip, got %d", chips)
	}
	n := g.NumVertices()
	p := &Partition{
		Mode:   mode,
		Chips:  chips,
		Seed:   seed,
		Owner:  make([]int32, n),
		Roots:  make([][]graph.VertexID, chips),
		ExtDeg: make([]int64, chips),
		IntDeg: make([]int64, chips),
	}
	switch mode {
	case ModeReplicate:
		// Chunked round-robin, the single-chip dispatch pattern one level
		// up. The chunk shrinks to 1 when 8-vertex chunks would leave a
		// chip empty (small graph, many chips).
		chunk := rootChunk
		if (n+rootChunk-1)/rootChunk < chips {
			chunk = 1
		}
		for v := 0; v < n; v++ {
			p.Owner[v] = int32((v / chunk) % chips)
		}
	case ModeHash:
		for v := 0; v < n; v++ {
			p.Owner[v] = int32(splitmix64(uint64(v)^uint64(seed)) % uint64(chips))
		}
		p.rebalanceEmpty(n)
	case ModeRange:
		for v := 0; v < n; v++ {
			p.Owner[v] = int32(int64(v) * int64(chips) / int64(n))
		}
	default:
		return nil, fmt.Errorf("cluster: unknown partition mode %q", mode)
	}
	count := make([]int, chips)
	for _, c := range p.Owner {
		count[c]++
	}
	for c := range p.Roots {
		p.Roots[c] = make([]graph.VertexID, 0, count[c])
	}
	for v, c := range p.Owner {
		p.Roots[c] = append(p.Roots[c], graph.VertexID(v))
	}
	for v := 0; v < n; v++ {
		c := p.Owner[v]
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if p.Owner[u] == c {
				p.IntDeg[c]++
			} else {
				p.ExtDeg[c]++
				if graph.VertexID(v) < u {
					p.CutEdges++
				}
			}
		}
	}
	return p, nil
}

// rebalanceEmpty deterministically fixes hash partitions that left a
// chip empty (possible by chance on small graphs): the lowest-id empty
// chip steals the highest-id vertex from the most-loaded chip, repeated
// until no chip is empty or vertices run out.
func (p *Partition) rebalanceEmpty(n int) {
	if n < p.Chips {
		return
	}
	count := make([]int, p.Chips)
	for _, c := range p.Owner {
		count[c]++
	}
	for {
		empty := -1
		for c := 0; c < p.Chips; c++ {
			if count[c] == 0 {
				empty = c
				break
			}
		}
		if empty < 0 {
			return
		}
		donor, most := -1, 1
		for c := 0; c < p.Chips; c++ {
			if count[c] > most {
				donor, most = c, count[c]
			}
		}
		for v := n - 1; v >= 0; v-- {
			if int(p.Owner[v]) == donor {
				p.Owner[v] = int32(empty)
				count[donor]--
				count[empty]++
				break
			}
		}
	}
}

// Validate checks the partition's structural invariants against its
// graph: complete single assignment, consistent cut bookkeeping
// (Σ ExtDeg == 2 × CutEdges, Σ (IntDeg + ExtDeg) == total degree), and
// no empty chip unless V < N. The fuzz harness drives it with random
// graphs and configs.
func (p *Partition) Validate(g *graph.Graph) error {
	n := g.NumVertices()
	if len(p.Owner) != n {
		return fmt.Errorf("cluster: partition covers %d of %d vertices", len(p.Owner), n)
	}
	var assigned int
	for c, roots := range p.Roots {
		if len(roots) == 0 && n >= p.Chips {
			return fmt.Errorf("cluster: chip %d owns no vertices (V=%d, N=%d)", c, n, p.Chips)
		}
		for _, v := range roots {
			if int(v) >= n || int(p.Owner[v]) != c {
				return fmt.Errorf("cluster: chip %d root list disagrees with Owner[%d]=%d", c, v, p.Owner[v])
			}
		}
		assigned += len(roots)
	}
	if assigned != n {
		return fmt.Errorf("cluster: root lists cover %d of %d vertices", assigned, n)
	}
	var ext, int_ int64
	for c := 0; c < p.Chips; c++ {
		ext += p.ExtDeg[c]
		int_ += p.IntDeg[c]
	}
	if ext != 2*p.CutEdges {
		return fmt.Errorf("cluster: Σ external degree %d != 2×cut edges %d", ext, 2*p.CutEdges)
	}
	if total := 2 * g.NumEdges(); ext+int_ != total {
		return fmt.Errorf("cluster: degree sum %d != graph total degree %d", ext+int_, total)
	}
	return nil
}

// String summarizes the partition quality.
func (p *Partition) String() string {
	min, max := -1, 0
	for _, r := range p.Roots {
		if min < 0 || len(r) < min {
			min = len(r)
		}
		if len(r) > max {
			max = len(r)
		}
	}
	return fmt.Sprintf("%s over %d chips: %d..%d vertices/chip, %d cut edges", p.Mode, p.Chips, min, max, p.CutEdges)
}
