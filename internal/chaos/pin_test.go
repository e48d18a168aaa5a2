package chaos

import (
	"testing"

	"shogun/internal/accel"
	"shogun/internal/cluster"
)

// chaosPin is what one perturbed run is pinned to. Every field is a pure
// function of the code, the graph and the injector seeds, so a change
// that reorders the jitter stream (or any draw taken from it) moves at
// least one of them even when counts and conservation still hold.
type chaosPin struct {
	cycles, events, embeddings int64
	splits                     int64 // delivered: Accelerator.Splits, summed over chips
	forced                     int64 // forced splits (and, on a cluster, forced migrations)
	jitters                    int64 // jitter draws that inflated a service time
}

// TestPerturbedRunsPinned compares perturbed runs with the numbers the
// code produced before the simulator's per-event allocations were
// removed. The other chaos tests check counts, conservation and
// same-seed replay, none of which notices a reordered jitter stream.
// Seeds and periods follow TestDeterministicReplay.
func TestPerturbedRunsPinned(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	injector := func(seed int64) *Injector {
		return New(Config{Seed: seed, JitterPct: 30, FlipPeriod: 1700, SplitPeriod: 2300})
	}
	chipCfg := func() accel.Config {
		cfg := accel.DefaultConfig(accel.SchemeShogun)
		cfg.EnableSplitting = true
		cfg.EnableMerging = true
		return cfg
	}

	chipPins := map[int64]chaosPin{
		7: {5224, 11274, 4653, 52, 2, 32691},
		8: {4881, 11221, 4653, 38, 2, 32606},
		9: {8745, 11269, 4653, 48, 2, 32673},
	}
	for seed, want := range chipPins {
		in := injector(seed)
		cfg := chipCfg()
		cfg.Perturb = in
		a, err := accel.New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in.Attach(a)
		res, err := a.Run()
		if err != nil {
			t.Fatalf("chip seed %d: %v", seed, err)
		}
		got := chaosPin{int64(res.Cycles), res.Events, res.Embeddings, a.Splits, in.Splits, in.Jitters}
		if got != want {
			t.Errorf("chip seed %d: got %+v, pinned %+v", seed, got, want)
		}
	}

	clusterPins := map[int64]chaosPin{
		7: {8758, 11152, 4653, 16, 9, 32883},
		8: {8747, 11174, 4653, 26, 8, 32884},
		9: {8791, 11165, 4653, 22, 7, 32818},
	}
	for seed, want := range clusterPins {
		cfg := cluster.DefaultConfig(accel.SchemeShogun, 2)
		cfg.Partition = cluster.ModeHash
		cfg.Chip = chipCfg()
		cfg.Chip.NumPEs = 4
		cl, err := cluster.New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ins []*Injector
		for i, chip := range cl.Chips() {
			in := injector(seed*100 + int64(i))
			chip.InstallPerturb(in)
			in.Attach(chip)
			ins = append(ins, in)
		}
		clIn := injector(seed + 7777)
		cl.Interconnect().SetPerturb(clIn)
		clIn.AttachCluster(cl, 2000)
		res, err := cl.Run()
		if err != nil {
			t.Fatalf("cluster seed %d: %v", seed, err)
		}
		got := chaosPin{cycles: int64(res.Cycles), events: res.Events, embeddings: res.Embeddings,
			forced: clIn.Migrations, jitters: clIn.Jitters}
		for i, chip := range cl.Chips() {
			got.splits += chip.Splits
			got.forced += ins[i].Splits
			got.jitters += ins[i].Jitters
		}
		if res.Migrations == 0 {
			t.Errorf("cluster seed %d: no migration delivered; the pin covers no migration", seed)
		}
		if got != want {
			t.Errorf("cluster seed %d: got %+v, pinned %+v", seed, got, want)
		}
	}
}
