package accel

import (
	"encoding/json"
	"fmt"
	"testing"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/metrics"
	"shogun/internal/sim/simtest"
)

// TestQueueDifferential is the event-engine order gate on real
// workloads: every cell of the conformance matrix runs twice, once alone
// on its engine and once with seeded background noise sharing the engine
// (same-cycle ties, ring-window edges, far-future overflow-heap events;
// see simtest.Noise). The noise changes what the calendar queue holds at
// every pop but not the (time, seq) order of the accelerator's own
// events, so the full Result (cycle counts, per-PE breakdowns, telemetry
// time series) and every hardware counter must be bit-identical once
// the noise's own deliveries are taken out of the event counts. Any
// divergence is an ordering bug, so the comparison has no tolerance.
func TestQueueDifferential(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)},
		{"plc", gen.PowerLawCluster(300, 6, 0.6, 43)},
	}
	for _, gr := range graphs {
		for _, wl := range datasets.Workloads() {
			for i, v := range conformanceVariants() {
				name := fmt.Sprintf("%s/%s/%s", gr.name, wl.Name, v.name)
				t.Run(name, func(t *testing.T) {
					var snaps []map[string]int64
					var blobs [][]byte
					for _, noisy := range []bool{false, true} {
						cfg := DefaultConfig(v.scheme)
						cfg.NumPEs = 4
						cfg.SampleEvery = 512 // telemetry series must match too
						if v.mutate != nil {
							v.mutate(&cfg)
						}
						a, err := New(gr.g, wl.Schedule, cfg)
						if err != nil {
							t.Fatalf("noise=%v: new: %v", noisy, err)
						}
						var n *simtest.Noise
						if noisy {
							n = simtest.NewNoise(a.Engine(), int64(i), false)
						}
						res, err := a.Run()
						if err != nil {
							t.Fatalf("noise=%v: run: %v", noisy, err)
						}
						snap := a.Metrics().Snapshot()
						if n != nil {
							res.Events -= n.Fired()
							snap["engine/events"] -= n.Fired()
							n.Discount(res.Telemetry)
						}
						blob, err := json.Marshal(res)
						if err != nil {
							t.Fatalf("noise=%v: marshal: %v", noisy, err)
						}
						blobs = append(blobs, blob)
						snaps = append(snaps, snap)
					}
					if string(blobs[0]) != string(blobs[1]) {
						t.Errorf("result diverged under engine noise:\nalone: %s\nnoisy: %s", blobs[0], blobs[1])
					}
					if diff := metrics.Diff(snaps[0], snaps[1]); len(diff) > 0 {
						t.Errorf("hardware counters diverged under engine noise: %v", diff)
					}
				})
			}
		}
	}
}
