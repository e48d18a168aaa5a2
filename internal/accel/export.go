package accel

import (
	"shogun/internal/core"
	"shogun/internal/graph"
	"shogun/internal/mem"
	"shogun/internal/pe"
	"shogun/internal/setops"
	"shogun/internal/sim"
	"shogun/internal/task"
)

// SplitExport is one carved depth-1 subtree in flight (§4.1): the victim
// root's vertex, a snapshot of its candidate set, and the carved range
// [Lo, Hi) of that set, which becomes the adopted root's spawn window.
// PE-to-PE splits and chip-to-chip migrations carry the same payload.
// The candidate set is a snapshot because the victim's root node may be
// recycled before the transfer lands. It is a buffer from the machine's
// candidate pool (task.Workload.CopyCand), which the adopting tree takes
// over.
type SplitExport struct {
	RootVertex graph.VertexID
	Cand       []graph.VertexID
	Lo, Hi     int
}

// Lines reports the payload size in cache lines (the candidate set; the
// root+range and set-size control messages ride as zero-line transfers).
func (x *SplitExport) Lines() int64 { return int64(setops.Lines(len(x.Cand))) }

// export snapshots root's candidate set, while root is still live, as
// the payload of its carved range [lo, hi).
func (a *Accelerator) export(root *task.Node, lo, hi int) SplitExport {
	return SplitExport{RootVertex: root.Vertex, Cand: a.w.CopyCand(root.Cand), Lo: lo, Hi: hi}
}

// adopt installs a delivered payload on PE p, which holds depth-1 token
// slot for the transferred set: the tree adopts the spawn window and
// takes over the snapshot, the set is copied once into p's L1 (the
// PE-to-PE copy the paper argues for over proxy access), and p is
// kicked. It reports false when p's tree has no depth-0 room right now;
// the caller still owns the token and the payload.
func (a *Accelerator) adopt(p *pe.PE, x *SplitExport, slot int) bool {
	if !p.Policy().(*core.Tree).AdoptSplit(x.RootVertex, x.Cand, x.Lo, x.Hi, slot) {
		return false
	}
	mem.AccessRange(p.L1, a.eng.Now(), a.w.Map.SetAddr(slot), int64(len(x.Cand))*4, true)
	a.tel.SplitLines.Observe(x.Lines())
	p.Kick()
	return true
}

// CarveExport carves a splittable depth-1 range off one of this chip's
// task trees for migration to another chip, scanning PEs in order.
// Returns ok=false when no tree holds enough unexplored range (or the
// scheme is not Shogun). The carved range is owned by the returned
// payload — the caller must eventually deliver it to an adopter or the
// subtree's embeddings are lost.
func (a *Accelerator) CarveExport() (SplitExport, bool) {
	if a.cfg.Scheme != SchemeShogun {
		return SplitExport{}, false
	}
	for _, p := range a.pes {
		t := p.Policy().(*core.Tree)
		root := t.SplittableRoot()
		if root == nil {
			continue
		}
		if lo, hi, ok := t.CarveSplit(root, 1); ok {
			a.MigratedOut++
			return a.export(root, lo, hi), true
		}
	}
	return SplitExport{}, false
}

// TryAdopt installs a migrated subtree onto one of this chip's PEs at
// the current engine time (the cluster scheduler has already paid the
// interconnect latency). Unless force is set only a quiet PE adopts;
// force relaxes that to any PE with a free depth-1 token (the chaos
// harness's mid-run forced migration). Returns false when no PE can
// accept now — the caller retries, because the carved range must never
// be dropped. On success the adopting tree owns x.Cand.
func (a *Accelerator) TryAdopt(x *SplitExport, force bool) bool {
	if a.cfg.Scheme != SchemeShogun {
		return false
	}
	for _, p := range a.pes {
		if !force && (!p.Idle() || p.HasWork()) {
			continue
		}
		if a.splitPending[p.ID] {
			continue
		}
		slot, ok := a.toks[p.ID].TryAcquire(1)
		if !ok {
			continue
		}
		if !a.adopt(p, x, slot) {
			a.toks[p.ID].Release(1, slot)
			continue
		}
		a.MigratedIn++
		return true
	}
	return false
}

// EndTime reports the run's completion cycle (latest task completion
// across this chip's PEs).
func (a *Accelerator) EndTime() sim.Time { return a.endTime() }

// BusySlotCycles sums the PEs' execution-slot residency — the numerator
// of a chip-occupancy ratio over cluster cycles.
func (a *Accelerator) BusySlotCycles() int64 {
	var n int64
	for _, p := range a.pes {
		n += p.SlotResidency
	}
	return n
}

// SlotCapacityPerCycle reports the chip's execution-slot capacity per
// cycle (PEs × width) — the denominator factor of chip occupancy.
func (a *Accelerator) SlotCapacityPerCycle() int64 {
	return int64(a.cfg.NumPEs) * int64(a.cfg.PE.Width)
}

// InstallPerturb wires a service-time perturber into this chip's FU,
// DRAM and NoC pools after construction — equivalent to building with
// Config.Perturb, for callers (the cluster chaos harness) that need a
// distinct perturber per chip under one shared chip Config.
func (a *Accelerator) InstallPerturb(pr sim.Perturber) { a.installPerturb(pr) }
