package cluster_test

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/chaos"
	"shogun/internal/cluster"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/metrics"
	"shogun/internal/telemetry"
)

// observed is what one run shows, the sampler's own marks aside: the
// Result JSON without Events and Telemetry, and the metrics snapshot
// without its engine/events counters.
type observed struct {
	res    string
	events int64
	ts     *telemetry.TimeSeries
	snap   map[string]int64
}

func observe(res any, events int64, ts *telemetry.TimeSeries, reg *metrics.Registry) observed {
	j, _ := json.Marshal(res)
	snap := reg.Snapshot()
	for k := range snap {
		if strings.HasSuffix(k, "engine/events") {
			delete(snap, k)
		}
	}
	return observed{res: string(j), events: events, ts: ts, snap: snap}
}

// sampleCap keeps every run below decimation, so each epoch is one
// retained sample.
const sampleCap = 1 << 12

// seriesDigest is an FNV-64a digest of a machine series without its
// engine/events column: the interval, the epoch cycles, then every
// other column's name and values in column order.
func seriesDigest(ts *telemetry.TimeSeries) uint64 {
	h := fnv.New64a()
	put := func(v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	put(ts.Interval)
	for _, c := range ts.Cycles {
		put(c)
	}
	for _, s := range ts.Series {
		if s.Name == "engine/events" {
			continue
		}
		h.Write([]byte(s.Name))
		for _, v := range s.Vals {
			put(v)
		}
	}
	return h.Sum64()
}

// sameObservation checks that sampling left the run as it was and cost
// exactly one engine event per epoch.
func sameObservation(t *testing.T, on, off observed) {
	t.Helper()
	if on.ts == nil || off.ts != nil {
		t.Fatalf("series: sampled %v, unsampled %v; want only the sampled run to carry one", on.ts != nil, off.ts != nil)
	}
	if on.res != off.res {
		t.Errorf("sampling changed the Result:\n on: %s\noff: %s", on.res, off.res)
	}
	if diff := metrics.Diff(off.snap, on.snap); len(diff) > 0 {
		t.Errorf("sampling changed the metrics: %v", diff)
	}
	n := len(on.ts.Cycles)
	if n == 0 || n >= sampleCap {
		t.Fatalf("%d epochs; the cell needs some, below the cap %d", n, sampleCap)
	}
	if got := on.events - off.events; got != int64(n) {
		t.Errorf("sampling cost %d events over %d epochs, want one tick per epoch", got, n)
	}
}

// TestSamplingObservesWithoutPerturbing: a sampled run is the unsampled
// run plus one tick event per epoch, whatever the chip count — the
// machine has one sampler, one tick and one digest set. Conformance
// cells run a standalone chip; the cluster cells run 3 and 4 hash-
// partitioned chips with stealing, one under chaos jitter, flips,
// forced splits and forced migrations. The cluster cells also pin an
// FNV-64a digest of the machine series without engine/events, at the
// values the machine series had when every chip kept its own sampler
// and the cluster merged their columns after the run.
func TestSamplingObservesWithoutPerturbing(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	for _, c := range []struct{ wl, variant string }{
		{"tc", "bfs"}, {"4cl", "shogun+split+merge"}, {"tt_e", "pseudo-dfs"}, {"4cl", "shogun+merge"},
	} {
		t.Run(c.wl+"/"+c.variant, func(t *testing.T) {
			var v variant
			for _, x := range variants() {
				if x.name == c.variant {
					v = x
				}
			}
			run := func(sample bool) observed {
				cfg := accel.DefaultConfig(v.scheme)
				cfg.NumPEs = 4
				if v.mutate != nil {
					v.mutate(&cfg)
				}
				if sample {
					cfg.SampleEvery, cfg.SampleCap = 256, sampleCap
				}
				a, err := accel.New(g, workload(t, c.wl).Schedule, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := a.Run()
				if err != nil {
					t.Fatal(err)
				}
				ts, events := res.Telemetry, res.Events
				res.Telemetry, res.Events = nil, 0
				return observe(res, events, ts, a.Metrics())
			}
			sameObservation(t, run(true), run(false))
		})
	}

	for _, c := range []struct {
		name   string
		g      *graph.Graph
		wl     string
		chips  int
		chaos  bool
		digest uint64
	}{
		{"plc-4cl-3chip", gen.PowerLawCluster(220, 5, 0.55, 9), "4cl", 3, false, 0x97fcd92f74ab6b60},
		{"rmat-tc-4chip", gen.RMAT(512, 4000, 0.57, 0.19, 0.19, 21), "tc", 4, false, 0x768424a9aae814f},
		{"plc-tt_e-4chip-chaos", gen.PowerLawCluster(300, 6, 0.6, 43), "tt_e", 4, true, 0x8961e7f5eec086cc},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(sample bool) observed {
				cfg := cluster.DefaultConfig(accel.SchemeShogun, c.chips)
				cfg.Partition = cluster.ModeHash
				cfg.PartitionSeed = 3
				cfg.Chip.NumPEs = 2
				cfg.Chip.EnableSplitting = true
				cfg.Chip.EnableMerging = true
				if sample {
					cfg.Chip.SampleEvery, cfg.Chip.SampleCap = 256, sampleCap
				}
				cl, err := cluster.New(c.g, workload(t, c.wl).Schedule, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.chaos {
					for i, chip := range cl.Chips() {
						in := chaos.New(chaos.Config{Seed: int64(i), JitterPct: 25, FlipPeriod: 1500, SplitPeriod: 2500})
						chip.InstallPerturb(in)
						in.Attach(chip)
					}
					chaos.New(chaos.Config{Seed: 99}).AttachCluster(cl, 2000)
				}
				res, err := cl.Run()
				if err != nil {
					t.Fatal(err)
				}
				if c.chaos && res.Migrations == 0 {
					t.Fatal("no chip-level migration; the chaos cell proves nothing")
				}
				ts, events := res.Telemetry, res.Events
				res.Telemetry, res.Events = nil, 0
				for _, cr := range res.ChipResults {
					cr.Events = 0
				}
				return observe(res, events, ts, cl.Metrics())
			}
			on := run(true)
			sameObservation(t, on, run(false))
			if got := seriesDigest(on.ts); got != c.digest {
				t.Errorf("machine series digest = %#x, want %#x", got, c.digest)
			}
		})
	}
}
