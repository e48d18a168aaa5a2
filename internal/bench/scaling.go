package bench

import (
	"fmt"

	"shogun/internal/accel"
)

// Scaling is an extension experiment (not in the paper): strong scaling
// of Shogun vs FINGERS as the PE count grows, with and without task-tree
// splitting. It quantifies when load balance starts to matter — the
// regime boundary §4.1 describes ("the number of search trees per PE is
// not large enough to tolerate runtime variance").
func Scaling(o Options) (*Table, error) {
	pes := []int{1, 2, 5, 10, 20, 40}
	if o.Quick {
		pes = []int{1, 4, 16}
	}
	g := o.dataset("wi")
	s := mustSchedule("4cl")

	var cells []cell
	for _, n := range pes {
		cfgF := accel.DefaultConfig(accel.SchemePseudoDFS)
		cfgF.NumPEs = n
		cfgS := accel.DefaultConfig(accel.SchemeShogun)
		cfgS.NumPEs = n
		cfgSplit := cfgS
		cfgSplit.EnableSplitting = true
		cells = append(cells,
			cell{fmt.Sprintf("fingers/%d", n), g, s, cfgF},
			cell{fmt.Sprintf("shogun/%d", n), g, s, cfgS},
			cell{fmt.Sprintf("split/%d", n), g, s, cfgSplit},
		)
	}
	grid, err := runCells(o, cells)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "scaling",
		Title:  "Strong scaling on wi x 4cl (extension)",
		Header: []string{"PEs", "FINGERS speedup", "Shogun speedup", "Shogun+split speedup"},
	}
	base := fmt.Sprintf("fingers/%d", pes[0])
	for _, n := range pes {
		t.AddRow(fmt.Sprintf("%d", n),
			grid.speedup(base, fmt.Sprintf("fingers/%d", n)),
			grid.speedup(base, fmt.Sprintf("shogun/%d", n)),
			grid.speedup(base, fmt.Sprintf("split/%d", n)))
	}
	t.AddNote("speedups vs FINGERS at %d PE(s); splitting's gap widens as trees per PE shrink", pes[0])
	grid.annotate(t)
	return t, nil
}
