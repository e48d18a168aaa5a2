package accel

import (
	"shogun/internal/core"
	"shogun/internal/pe"
	"shogun/internal/sim"
)

// onPEIdle fires when a PE runs out of runnable work. Once all search
// trees are dispatched, idleness is the load-imbalance signal of §4.1:
// the system scheduler checks whether busy PEs should split their task
// trees onto the idlers.
func (a *Accelerator) onPEIdle(_ *pe.PE) {
	if a.cfg.EnableSplitting && a.cfg.Scheme == SchemeShogun {
		// With static dispatch an idle PE's own root queue is already
		// empty, so idleness while peers stay busy IS the imbalance
		// signal; the multi-round mechanism (§4.1) keeps sharing the
		// stragglers' current trees as they drain through their backlogs.
		a.armBalance()
	}
	// At cluster scope the same signal one level up: a fully quiet chip
	// is a work-stealing helper candidate.
	if a.OnChipIdle != nil && a.ChipIdle() {
		a.OnChipIdle()
	}
}

// armBalance schedules one imbalance check (debounced).
func (a *Accelerator) armBalance() {
	if a.balanceArmed {
		return
	}
	a.balanceArmed = true
	a.eng.PostAfter(1, a, opBalanceCheck, nil)
}

// balanceCheck implements Fig. 8: detect imbalance (idle PEs while others
// stay busy), instruct heavily loaded PEs to split their task trees at
// depth 1, and transfer root data to the idlers. Multiple rounds occur
// naturally: the check re-arms while imbalance persists.
func (a *Accelerator) balanceCheck() {
	a.balanceArmed = false
	idle, busy := a.idleScratch[:0], a.busyScratch[:0]
	for _, p := range a.pes {
		if p.Idle() && !p.HasWork() {
			idle = append(idle, p)
		} else {
			busy = append(busy, p)
		}
	}
	a.idleScratch, a.busyScratch = idle, busy
	if len(idle) == 0 || len(busy) == 0 {
		if len(busy) > 0 {
			// All busy: re-check later in case the tail imbalances.
			a.eng.PostAfter(a.cfg.BalancePeriod, a, opArmBalanceIfNeeded, nil)
		}
		return
	}
	// Filter helpers already reserved by an in-flight transfer (in place:
	// idle is not read again).
	free := idle[:0]
	for _, h := range idle {
		if !a.splitPending[h.ID] {
			free = append(free, h)
		}
	}
	helpersUsed := 0
	for _, victim := range busy {
		if helpersUsed >= len(free) {
			break
		}
		tree, ok := victim.Policy().(*core.Tree)
		if !ok {
			continue
		}
		root := tree.SplittableRoot()
		if root == nil {
			continue
		}
		k := len(free) - helpersUsed
		if k > a.cfg.MaxHelpersPerSplit {
			k = a.cfg.MaxHelpersPerSplit
		}
		lo, hi, ok := tree.CarveSplit(root, k)
		if !ok {
			continue
		}
		// CarveSplit cut exactly one equal share per helper.
		share := (hi - lo) / k
		for i, h := range free[helpersUsed : helpersUsed+k] {
			slot, ok := a.toks[h.ID].TryAcquire(1)
			if !ok {
				panic("accel: idle helper has no free depth-1 token")
			}
			a.sendSplit(h, slot, a.export(root, lo+i*share, lo+(i+1)*share))
		}
		helpersUsed += k
	}
	// Imbalance may remain (prediction uncertainty): schedule another
	// round (§4.1's multi-round solution).
	a.eng.PostAfter(a.cfg.BalancePeriod, a, opArmBalanceIfNeeded, nil)
}

func (a *Accelerator) armBalanceIfNeeded() {
	for _, p := range a.pes {
		if !p.Idle() || p.HasWork() {
			a.armBalance()
			return
		}
	}
}

// splitMsg is one in-flight §4.1 split transfer to a helper PE holding
// depth-1 token slot for the payload, carried as the delivery event's
// argument (and re-carried across adoption retries). A dense graph
// splits often (3,716 times in one Orkut-analogue triangle run on the
// Table-3 chip), so messages are recycled through the accelerator's
// free list.
type splitMsg struct {
	helper *pe.PE
	slot   int
	x      SplitExport
}

// sendSplit ships a carved payload to helper h over the NoC (§4.1's
// three messages) and reserves h until the delivery adopts it.
func (a *Accelerator) sendSplit(h *pe.PE, slot int, x SplitExport) {
	var m *splitMsg
	if k := len(a.splitFree); k > 0 {
		m = a.splitFree[k-1]
		a.splitFree = a.splitFree[:k-1]
	} else {
		m = new(splitMsg)
	}
	*m = splitMsg{helper: h, slot: slot, x: x}
	arrive := a.noc.SendSplit(a.eng.Now(), x.Lines())
	a.splitPending[h.ID] = true
	a.splitsInFlight++
	a.eng.Post(arrive, a, opDeliverSplit, m)
}

// deliverSplit installs a split subtree on the helper, retrying if the
// helper's depth-0 capacity is momentarily occupied — the carved range
// must never be dropped. An adopted message goes back to the free list.
func (a *Accelerator) deliverSplit(m *splitMsg) {
	if a.adopt(m.helper, &m.x, m.slot) {
		a.splitPending[m.helper.ID] = false
		a.splitsInFlight--
		a.Splits++
		*m = splitMsg{}
		a.splitFree = append(a.splitFree, m)
		return
	}
	a.eng.PostAfter(a.cfg.BalancePeriod, a, opDeliverSplit, m)
}

// ForceSplit carves one task-tree split regardless of the imbalance
// signal — the chaos harness's fault injection. Unlike balanceCheck it
// does not require the helper to be idle (a mid-run forced split is the
// point), so the helper's depth-1 token is acquired FIRST and released
// if the carve fails; the delivery path is the normal deliverSplit,
// which retries until the helper can adopt. Reports whether a split was
// initiated. Only meaningful for the Shogun scheme.
func (a *Accelerator) ForceSplit() bool {
	if a.cfg.Scheme != SchemeShogun {
		return false
	}
	for _, victim := range a.pes {
		tree := victim.Policy().(*core.Tree)
		root := tree.SplittableRoot()
		if root == nil {
			continue
		}
		for _, h := range a.pes {
			if h.ID == victim.ID || a.splitPending[h.ID] {
				continue
			}
			slot, ok := a.toks[h.ID].TryAcquire(1)
			if !ok {
				continue
			}
			lo, hi, ok := tree.CarveSplit(root, 1)
			if !ok {
				a.toks[h.ID].Release(1, slot)
				return false // this victim's root is not carvable; done
			}
			a.sendSplit(h, slot, a.export(root, lo, hi))
			return true
		}
	}
	return false
}

// armMerge starts the periodic merging-decision loop (§4.2) when enabled.
func (a *Accelerator) armMerge() {
	if !a.cfg.EnableMerging || a.cfg.Scheme != SchemeShogun || a.mergeArmed {
		return
	}
	a.mergeArmed = true
	a.eng.PostAfter(a.cfg.MergePeriod, a, opMergeCheck, nil)
}

// mergeCheck evaluates, per PE, the three §4.2 conditions: (1) FU
// utilization has headroom, (2) L1 is not thrashing, (3) memory bandwidth
// is not exhausted. PEs satisfying all three are allowed to pull a second
// search tree.
func (a *Accelerator) mergeCheck() {
	a.mergeArmed = false
	n := a.dram.Reads + a.dram.Writes - a.dramAccessAtRoll
	bwOK := n == 0 || sim.Ratio(a.dram.LatSum-a.dramLatAtRoll, n) < 3*float64(a.cfg.DRAM.RowMissLat)
	a.dramLatAtRoll, a.dramAccessAtRoll = a.dram.LatSum, a.dram.Reads+a.dram.Writes
	anyBusy := false
	for _, p := range a.pes {
		tree, ok := p.Policy().(*core.Tree)
		if !ok {
			continue
		}
		if !p.Idle() || p.HasWork() {
			anyBusy = true
		}
		s := p.LastSample
		allow := bwOK &&
			s.IUUtil < p.Cfg.ConservUtilThresh &&
			(!s.L1HasData || s.L1AvgLat < p.Cfg.ConservLatThresh) &&
			!p.Conservative()
		wasAllowed := tree.CanMerge()
		tree.SetMergeAllowed(allow)
		if allow && wasAllowed {
			p.Kick()
		}
	}
	if anyBusy {
		a.mergeArmed = true
		a.eng.PostAfter(a.cfg.MergePeriod, a, opMergeCheck, nil)
	}
}
