package mem

import (
	"fmt"

	"shogun/internal/sim"
)

// NoCConfig describes the on-chip network connecting PEs, the system
// scheduler and the shared L2.
type NoCConfig struct {
	// Links is the number of concurrent transfers the fabric sustains.
	Links int
	// HopLat is the one-way traversal latency added to every request.
	HopLat sim.Time
	// FlitCycles is the link occupancy per cache line moved.
	FlitCycles sim.Time
}

// NoC models the interconnect as a link pool: requests acquire a link for
// their payload duration and pay a fixed hop latency.
type NoC struct {
	cfg   NoCConfig
	links *sim.Pool

	LinesMoved int64
	Messages   int64
}

// NewNoC builds the interconnect.
func NewNoC(cfg NoCConfig) *NoC {
	return &NoC{cfg: cfg, links: sim.NewPool("noc", cfg.Links)}
}

// SetPerturb installs a service-time perturber on the link pool
// (chaos-harness latency jitter on fabric occupancy).
func (n *NoC) SetPerturb(pr sim.Perturber) { n.links.SetPerturb(pr) }

// Transfer moves `lines` cache lines plus a control message across the
// fabric, returning the delivery time. Used for PE↔L2 traffic and,
// through SendSplit, for task-tree-splitting transfers (§4.1).
func (n *NoC) Transfer(now sim.Time, lines int64) sim.Time {
	occ := n.cfg.FlitCycles * sim.Time(lines)
	if occ < 1 {
		occ = 1
	}
	start := n.links.Acquire(now, occ)
	n.LinesMoved += lines
	n.Messages++
	return start + occ + n.cfg.HopLat
}

// SendSplit models one task-tree split transfer (§4.1): the root+range
// message and the set-size message ride as two zero-line control
// transfers, then the candidate set's lines follow. It returns the
// payload's arrival time. The on-chip NoC carries PE-to-PE splits and a
// cluster's interconnect carries chip-to-chip migrations with the same
// three messages.
func (n *NoC) SendSplit(now sim.Time, lines int64) sim.Time {
	n.Transfer(now, 0)
	n.Transfer(now, 0)
	return n.Transfer(now, lines)
}

// InFlight reports the links still occupied past `now` — the in-flight
// message gauge a telemetry sampler reads at an epoch boundary.
func (n *NoC) InFlight(now sim.Time) int {
	return n.links.InFlightAt(now)
}

// Path wraps a memory level behind the NoC: each line access crosses the
// fabric (request) and returns (response latency folded into HopLat on
// both directions).
type Path struct {
	noc   *NoC
	level Level
}

// NewPath returns a Level that reaches `level` through the NoC.
func (n *NoC) NewPath(level Level) *Path {
	return &Path{noc: n, level: level}
}

// Access crosses the NoC, accesses the wrapped level, and crosses back.
func (p *Path) Access(now sim.Time, addr int64, write bool) sim.Time {
	arrive := p.noc.Transfer(now, 1)
	done := p.level.Access(arrive, addr, write)
	return done + p.noc.cfg.HopLat
}

// AddressMap lays out the simulated physical address space. Regions are
// disjoint so cache behaviour of graph data and intermediates never
// aliases.
type AddressMap struct {
	// CSRBase is where the flat neighbor array of the graph begins.
	CSRBase int64
	// InterBase is where preallocated intermediate vertex sets begin.
	InterBase int64
	// SetStride is the byte stride between consecutive intermediate-set
	// slots (≥ the largest possible set, rounded to lines).
	SetStride int64
}

// NewAddressMap sizes the layout for a graph whose neighbor array has
// csrInts entries and whose largest vertex set has maxSetInts entries.
func NewAddressMap(csrInts int64, maxSetInts int) AddressMap {
	stride := int64(maxSetInts) * 4
	stride = (stride + LineBytes - 1) / LineBytes * LineBytes
	if stride == 0 {
		stride = LineBytes
	}
	csrBytes := (csrInts*4 + LineBytes - 1) / LineBytes * LineBytes
	return AddressMap{
		CSRBase:   1 << 20,
		InterBase: 1<<20 + csrBytes + LineBytes,
		SetStride: stride,
	}
}

// CSRAddr returns the byte address of element offsetInts of the neighbor
// array.
func (m AddressMap) CSRAddr(offsetInts int64) int64 {
	return m.CSRBase + offsetInts*4
}

// SetAddr returns the byte address of intermediate-set slot `slot`.
func (m AddressMap) SetAddr(slot int) int64 {
	return m.InterBase + int64(slot)*m.SetStride
}

// String summarizes the layout.
func (m AddressMap) String() string {
	return fmt.Sprintf("csr@%#x inter@%#x stride=%d", m.CSRBase, m.InterBase, m.SetStride)
}
