package bench

import (
	"shogun/internal/accel"
)

// Ablation measures how much each Shogun design choice contributes, on
// representative workloads (DESIGN.md's ablation index). Variants:
//
//	full          the complete design (baseline of the table)
//	no-sibling    round-robin only: no sibling-first selection (locality)
//	no-monitor    locality monitor off: conservative mode never engages
//	conservative  conservative mode pinned on: sibling-only co-scheduling
//	tokens=2      address tokens per depth cut to 2 (memory throttling)
//	bunches=1     a single bunch per depth (generation parallelism)
func Ablation(o Options) (*Table, error) {
	variants := []struct {
		name string
		mk   func() accel.Config
	}{
		{"full", func() accel.Config { return accel.DefaultConfig(accel.SchemeShogun) }},
		{"no-sibling", func() accel.Config {
			c := accel.DefaultConfig(accel.SchemeShogun)
			c.Tree.NoSiblingPreference = true
			return c
		}},
		{"no-monitor", func() accel.Config {
			c := accel.DefaultConfig(accel.SchemeShogun)
			c.PE.MonitorPeriod = 0
			return c
		}},
		{"conservative", func() accel.Config {
			c := accel.DefaultConfig(accel.SchemeShogun)
			c.ForceConservative = true
			return c
		}},
		{"tokens=2", func() accel.Config {
			c := accel.DefaultConfig(accel.SchemeShogun)
			c.TokensPerDepth = 2
			return c
		}},
		{"bunches=1", func() accel.Config {
			c := accel.DefaultConfig(accel.SchemeShogun)
			c.Tree.BunchesPerDepth = 1
			return c
		}},
	}
	type pick struct {
		ds, wl, label string
		mutate        func(*accel.Config)
	}
	picks := []pick{
		{"as", "4cl", "as-4cl", nil},
		{"yo", "tt_e", "yo-tt_e", nil},
		{"lj", "dia_v", "lj-dia_v", nil},
		// A thrashing-regime cell (capacity-scaled L1, wide execution):
		// this is where the locality monitor and sibling preference earn
		// their keep.
		{"lj", "tt_e", "lj-tt_e@8KB/w16", func(c *accel.Config) {
			c.PE.Width = 16
			c.TokensPerDepth = 16
			c.Tree.EntriesPerBunch = 16
			c.PE.L1.SizeKB = 8
		}},
	}
	if o.Quick {
		picks = picks[:2]
	}

	var cells []cell
	for _, pk := range picks {
		g := o.dataset(pk.ds)
		s := mustSchedule(pk.wl)
		for _, v := range variants {
			cfg := v.mk()
			if pk.mutate != nil {
				pk.mutate(&cfg)
			}
			cells = append(cells, cell{v.name + ":" + pk.label, g, s, cfg})
		}
	}
	grid, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "ablation",
		Title: "Shogun design-choice ablation (relative performance, full = 1.00)",
	}
	t.Header = []string{"Variant"}
	for _, pk := range picks {
		t.Header = append(t.Header, pk.label)
	}
	for _, v := range variants {
		row := []string{v.name}
		for _, pk := range picks {
			row = append(row, grid.speedup("full:"+pk.label, v.name+":"+pk.label))
		}
		t.AddRow(row...)
	}
	t.AddNote("values are speedups relative to the full design; <1.00 means the removed/forced feature was helping")
	grid.annotate(t)
	return t, nil
}
