package bench

import (
	"fmt"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/sim"
)

// ClusterScaling is an extension experiment (not in the paper):
// multi-chip scale-out of the Shogun machine at 1–16 chips over the
// inter-chip interconnect, reporting speedup, chip-occupancy balance
// (max and mean), and migrated-subtree volume. The BENCH_0009 snapshot
// records the same sweep through BenchmarkClusterSimulate.
func ClusterScaling(o Options) (*Table, error) {
	chipCounts := []int{1, 2, 4, 8, 16}
	g := o.dataset("wi")
	s := mustSchedule("tc")
	want := expectedCount(g, s, o.workers())

	type outcome struct {
		chips int
		res   *cluster.Result
		err   error
	}
	outs := make([]outcome, len(chipCounts))
	runPool(o, len(chipCounts), func(i int) (string, error) {
		n := chipCounts[i]
		chip := accel.DefaultConfig(accel.SchemeShogun)
		chip.NumPEs = 4
		chip.EnableSplitting = true
		if o.CellMaxEvents > 0 {
			chip.MaxEvents = o.CellMaxEvents
		}
		if o.CellTimeout > 0 {
			chip.MaxWall = o.CellTimeout
		}
		cfg := cluster.DefaultConfig(accel.SchemeShogun, n)
		cfg.Chip = chip
		cfg.Partition = cluster.ModeHash
		outs[i].chips = n
		cl, err := cluster.New(g, s, cfg)
		if err == nil {
			outs[i].res, err = cl.RunContext(o.ctx())
		}
		outs[i].err = err
		return fmt.Sprintf("cluster/chips=%d", n), err
	})

	t := &Table{
		ID:     "cluster",
		Title:  "Multi-chip scale-out on wi x tc, hash partition (extension)",
		Header: []string{"chips", "cycles", "speedup", "max occ", "mean occ", "max/mean", "migrations", "interconnect lines"},
	}
	var base sim.Time
	for _, out := range outs {
		if out.err != nil {
			o.logf("  FAILED chips=%d: %v", out.chips, out.err)
			t.AddRow(fmt.Sprintf("%d", out.chips), "FAILED", "-", "-", "-", "-", "-", "-")
			continue
		}
		res := out.res
		if !o.SkipVerify && res.Embeddings != want {
			return nil, fmt.Errorf("bench: cluster chips=%d count mismatch: sim=%d software=%d", out.chips, res.Embeddings, want)
		}
		if base == 0 {
			base = res.Cycles
		}
		o.logf("  chips=%-3d %12d cycles  occ max=%4.1f%% mean=%4.1f%%  migrations=%d",
			out.chips, res.Cycles, res.MaxOccupancy*100, res.MeanOccupancy*100, res.Migrations)
		t.AddRow(fmt.Sprintf("%d", out.chips),
			fmt.Sprintf("%d", res.Cycles),
			fmt.Sprintf("%.2fx", float64(base)/float64(res.Cycles)),
			fmt.Sprintf("%.1f%%", res.MaxOccupancy*100),
			fmt.Sprintf("%.1f%%", res.MeanOccupancy*100),
			fmt.Sprintf("%.2f", res.ImbalanceRatio()),
			fmt.Sprintf("%d", res.Migrations),
			fmt.Sprintf("%d", res.InterLines))
	}
	t.AddNote("graph replicated per chip, root space hash-partitioned; chip-level stealing over the interconnect")
	t.AddNote("speedup vs 1 chip; max/mean occupancy 1.00 = perfect chip-level balance")
	return t, nil
}
