package chaos

import (
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/metrics"
)

// The counter-conservation half of the metamorphic suite: the metrics
// registry's invariants must hold under every fault the harness can
// inject, and the counters that describe WHAT was computed (tasks
// created/executed/released, leaves, embeddings, pruned fetches) must be
// bit-identical under pure latency jitter — jitter may only move work in
// time, never change it. Cache hit/miss and cycle counters are excluded
// from the invariance check: replacement state depends on access order,
// which jitter legitimately reorders.

const conservationSeeds = 12

// TestMetricsVerifyUnderChaos runs the full fault mix (jitter + forced
// conservative flips + forced splits) across seeds and demands a clean
// conservation pass each time.
func TestMetricsVerifyUnderChaos(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	var flips, splits int64
	for seed := int64(0); seed < conservationSeeds; seed++ {
		in := New(Config{
			Seed:        seed,
			JitterPct:   25,
			FlipPeriod:  1500 + 100*cadence(seed),
			SplitPeriod: 2500 + 150*cadence(seed),
		})
		cfg := accel.DefaultConfig(accel.SchemeShogun)
		cfg.EnableSplitting = true
		cfg.EnableMerging = true
		cfg.Perturb = in
		a, err := accel.New(g, s, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		in.Attach(a)
		if _, err := a.Run(); err != nil {
			// Run itself verifies; a violation surfaces here with
			// the failing seed.
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := a.VerifyMetrics(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		flips += in.Flips
		splits += in.Splits
	}
	if flips == 0 || splits == 0 {
		t.Fatalf("fault injection inert: flips=%d splits=%d", flips, splits)
	}
}

// dataKeys filters a metrics snapshot down to the counters determined by
// the computation alone (independent of timing): global and per-PE task
// flow, leaves, embeddings, pruning.
func dataKeys(snap map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range snap {
		switch {
		case strings.HasPrefix(k, "tasks/"):
			out[k] = v
		case strings.HasSuffix(k, "/executed"),
			strings.HasSuffix(k, "/leaf-tasks"),
			strings.HasSuffix(k, "/pruned-fetches"),
			strings.HasSuffix(k, "/embeddings"):
			out[k] = v
		}
	}
	return out
}

// TestCounterJitterInvariance is the metamorphic property: pure latency
// jitter (no forced flips or splits, no task migration) must leave every
// data-determined counter identical to the unperturbed baseline, while
// cycle totals merely shift.
func TestCounterJitterInvariance(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	run := func(seed int64, jitterPct int) (*accel.Accelerator, map[string]int64) {
		t.Helper()
		cfg := accel.DefaultConfig(accel.SchemeShogun)
		var in *Injector
		if jitterPct > 0 {
			in = New(Config{Seed: seed, JitterPct: jitterPct})
			cfg.Perturb = in
		}
		a, err := accel.New(g, s, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in != nil {
			in.Attach(a)
		}
		if _, err := a.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if in != nil && in.Jitters == 0 {
			t.Fatalf("seed %d: jitter inert", seed)
		}
		return a, a.Metrics().Snapshot()
	}

	_, baseSnap := run(0, 0)
	baseCycle := baseSnap["engine/final-cycle"]
	baseData := dataKeys(baseSnap)
	if len(baseData) < 10 {
		t.Fatalf("only %d data-determined counters found — key filter broken?", len(baseData))
	}

	shifted := 0
	for seed := int64(1); seed <= conservationSeeds; seed++ {
		_, snap := run(seed, 30)
		if diff := metrics.Diff(baseData, dataKeys(snap)); len(diff) != 0 {
			t.Fatalf("seed %d: data-determined counters changed under jitter: %v", seed, diff)
		}
		if snap["engine/final-cycle"] != baseCycle {
			shifted++
		}
	}
	if shifted == 0 {
		t.Fatal("jitter never shifted the cycle total — perturbation not reaching the timing model")
	}
}
