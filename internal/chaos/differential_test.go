package chaos

import (
	"encoding/json"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/metrics"
	"shogun/internal/sim/simtest"
)

// TestQueueDifferentialUnderChaos extends the event-engine order gate
// (accel's TestQueueDifferential) to perturbed runs: across 12 chaos
// seeds of latency jitter, forced conservative flips, and forced
// task-tree splits, a run alone on its engine and the same run sharing
// the engine with seeded background noise (simtest.Noise) must be
// bit-identical once the noise's deliveries are taken out of the event
// counts — the chaos injector consumes its RNG stream in event order, so
// this catches any reordering the clean matrix is too regular to expose.
func TestQueueDifferentialUnderChaos(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	base := accel.DefaultConfig(accel.SchemeShogun)
	base.EnableSplitting = true
	base.EnableMerging = true
	base.SampleEvery = 512
	for seed := int64(0); seed < 12; seed++ {
		var blobs []string
		var snaps []map[string]int64
		var faults [][3]int64
		for _, noisy := range []bool{false, true} {
			in := New(Config{
				Seed:        seed,
				JitterPct:   25,
				FlipPeriod:  1500 + 100*cadence(seed),
				SplitPeriod: 2500 + 150*cadence(seed),
			})
			cfg := base
			cfg.Perturb = in
			a, err := accel.New(g, s, cfg)
			if err != nil {
				t.Fatalf("seed %d noise=%v: %v", seed, noisy, err)
			}
			in.Attach(a)
			var n *simtest.Noise
			if noisy {
				n = simtest.NewNoise(a.Engine(), seed, false)
			}
			res, err := a.Run()
			if err != nil {
				t.Fatalf("seed %d noise=%v: run failed: %v", seed, noisy, err)
			}
			snap := a.Metrics().Snapshot()
			if n != nil {
				res.Events -= n.Fired()
				snap["engine/events"] -= n.Fired()
				n.Discount(res.Telemetry.Cycles, res.Telemetry.Col("engine/events"))
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("seed %d noise=%v: marshal: %v", seed, noisy, err)
			}
			blobs = append(blobs, string(blob))
			snaps = append(snaps, snap)
			faults = append(faults, [3]int64{in.Jitters, in.Flips, in.Splits})
		}
		if blobs[0] != blobs[1] {
			t.Errorf("seed %d: result diverged under engine noise:\nalone: %s\nnoisy: %s", seed, blobs[0], blobs[1])
		}
		if diff := metrics.Diff(snaps[0], snaps[1]); len(diff) > 0 {
			t.Errorf("seed %d: hardware counters diverged: %v", seed, diff)
		}
		if faults[0] != faults[1] {
			t.Errorf("seed %d: fault injection diverged (jitters,flips,splits): alone %v, noisy %v", seed, faults[0], faults[1])
		}
		if faults[0][0] == 0 {
			t.Errorf("seed %d: no jitter fired — the differential proves nothing", seed)
		}
	}
}
