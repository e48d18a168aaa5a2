package bench

import (
	"fmt"

	"shogun/internal/accel"
)

// Breakdown generates the cycle-attribution analogue of the paper's
// utilization discussion (§5, Figs. 9-10 commentary): for each scheme on
// a cacheable (wi) and a thrashing (yo) dataset, where do the PEs' slot
// cycles go — compute, memory stalls, scheduling work, or idling — and
// how unevenly are the PEs loaded. Every cell's attribution is exact:
// the four categories partition width × run-cycles to the cycle
// (metrics.Verify enforces it during each run).
func Breakdown(o Options) (*Table, error) {
	type variant struct {
		name   string
		scheme accel.Scheme
		mutate func(*accel.Config)
	}
	variants := []variant{
		{"pseudo-dfs", accel.SchemePseudoDFS, nil},
		{"shogun", accel.SchemeShogun, nil},
		{"shogun+opts", accel.SchemeShogun, func(c *accel.Config) {
			c.EnableSplitting = true
			c.EnableMerging = true
		}},
	}
	dss := []string{"wi", "yo"}
	wl := "tc"
	s := mustSchedule(wl)

	var cells []cell
	for _, ds := range dss {
		g := o.dataset(ds)
		for _, v := range variants {
			cfg := accel.DefaultConfig(v.scheme)
			if v.mutate != nil {
				v.mutate(&cfg)
			}
			cells = append(cells, cell{ds + "/" + v.name, g, s, cfg})
		}
	}
	grid, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:     "breakdown",
		Title:  fmt.Sprintf("Cycle attribution on %s (exact slot-cycle partition)", wl),
		Header: []string{"Dataset", "Scheme", "Compute", "MemStall", "Sched", "Idle", "PE busy min..max"},
	}
	for _, ds := range dss {
		for _, v := range variants {
			key := ds + "/" + v.name
			res := grid.Res(key)
			if res == nil {
				t.AddRow(ds, v.name, "-", "-", "-", "-", "-")
				continue
			}
			total := float64(res.Breakdown.Total())
			share := func(v int64) string { return pct(float64(v) / total) }
			lo, hi := 1.0, 0.0
			for _, ps := range res.PerPE {
				u := float64(ps.Breakdown.Busy()) / float64(ps.Breakdown.Total())
				if u < lo {
					lo = u
				}
				if u > hi {
					hi = u
				}
			}
			t.AddRow(ds, v.name,
				share(res.Breakdown.Compute), share(res.Breakdown.MemStall),
				share(res.Breakdown.Scheduling), share(res.Breakdown.Idle),
				pct(lo)+".."+pct(hi))
		}
	}
	t.AddNote("per-PE attributed cycles sum exactly to width x run-cycles (verified per cell)")
	t.AddNote("PE busy spread narrows under shogun+opts: splitting shares end-of-run work")
	grid.annotate(t)
	return t, nil
}
