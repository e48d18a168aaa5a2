package chaos

import (
	"fmt"
	"sync"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

// The metamorphic invariant suite: across many seeds of latency jitter,
// forced conservative flips, and forced task-tree splits, every scheme
// must (1) report the exact golden embedding count, (2) leak no
// execution slots, SPM lines, or address tokens, and (3) terminate
// without deadlocking. The data computation is decoupled from the
// timing model, so any divergence is a real scheduling bug, not noise.

const numSeeds = 20

func testGraph() *graph.Graph {
	return gen.RMAT(1<<9, 3000, 0.57, 0.17, 0.17, 42)
}

func schedule(t *testing.T) *pattern.Schedule {
	t.Helper()
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// schemes returns the ≥3 configurations the suite perturbs, including
// Shogun with both optimizations on (the richest scheduling surface).
func schemes() map[string]accel.Config {
	shogun := accel.DefaultConfig(accel.SchemeShogun)
	shogun.EnableSplitting = true
	shogun.EnableMerging = true
	return map[string]accel.Config{
		"shogun+split+merge": shogun,
		"pseudo-dfs":         accel.DefaultConfig(accel.SchemePseudoDFS),
		"bfs":                accel.DefaultConfig(accel.SchemeBFS),
	}
}

func TestMetamorphicInvariants(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	golden := mine.ParallelCount(g, s, 4).Embeddings
	if golden == 0 {
		t.Fatal("degenerate test graph: zero golden embeddings")
	}
	var totalJ, totalF, totalSp int64
	var mu sync.Mutex
	for name, cfg := range schemes() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < numSeeds; seed++ {
				in := New(Config{
					Seed:        seed,
					JitterPct:   25,
					FlipPeriod:  1500 + 100*cadence(seed),
					SplitPeriod: 2500 + 150*cadence(seed),
				})
				c := cfg
				c.Perturb = in
				a, err := accel.New(g, s, c)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				in.Attach(a)
				res, err := a.Run()
				if err != nil {
					t.Fatalf("seed %d: run failed: %v", seed, err)
				}
				if res.Embeddings != golden {
					t.Fatalf("seed %d: count diverged under perturbation: %d, golden %d", seed, res.Embeddings, golden)
				}
				if err := a.CheckConservation(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				mu.Lock()
				totalJ += in.Jitters
				totalF += in.Flips
				totalSp += in.Splits
				mu.Unlock()
			}
		})
	}
	t.Cleanup(func() {
		// The suite proves nothing if no faults actually fired.
		if totalJ == 0 || totalF == 0 {
			t.Errorf("harness injected nothing: jitters=%d flips=%d splits=%d", totalJ, totalF, totalSp)
		}
		t.Logf("injected: %d jitter draws, %d flips, %d splits", totalJ, totalF, totalSp)
	})
}

// cadence varies fault periods with the seed so flips/splits land at
// different points of the schedule across seeds, not just with
// different rng streams.
func cadence(seed int64) int64 { return seed % 7 }

// TestDeterministicReplay pins the "failing seed replays exactly"
// property: two runs with the same seed produce identical cycle counts
// and fault counters.
// TestSplitLinesUnderForcedSplits: forced mid-run splits take the same
// adopt path as balance-driven ones, so the split-payload histogram
// still observes exactly once per delivered split.
func TestSplitLinesUnderForcedSplits(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	var forced int64
	for seed := int64(1); seed <= 3; seed++ {
		in := New(Config{Seed: seed, JitterPct: 25, FlipPeriod: 1500, SplitPeriod: 2000})
		cfg := schemes()["shogun+split+merge"]
		cfg.Perturb = in
		cfg.SampleEvery = 512
		a, err := accel.New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		in.Attach(a)
		if _, err := a.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := a.Telemetry().SplitLines.Count(), a.Splits+a.MigratedIn; got != want {
			t.Errorf("seed %d: split-lines count = %d, want splits + migrations in = %d", seed, got, want)
		}
		forced += in.Splits
	}
	if forced == 0 {
		t.Fatal("no forced split was injected; the test proves nothing")
	}
}

func TestDeterministicReplay(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	cfg := accel.DefaultConfig(accel.SchemeShogun)
	cfg.EnableSplitting = true
	run := func() (cycles int64, j, f, sp int64) {
		in := New(Config{Seed: 7, JitterPct: 30, FlipPeriod: 1700, SplitPeriod: 2300})
		c := cfg
		c.Perturb = in
		a, err := accel.New(g, s, c)
		if err != nil {
			t.Fatal(err)
		}
		in.Attach(a)
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, in.Jitters, in.Flips, in.Splits
	}
	c1, j1, f1, sp1 := run()
	c2, j2, f2, sp2 := run()
	if c1 != c2 || j1 != j2 || f1 != f2 || sp1 != sp2 {
		t.Fatalf("same seed diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", c1, j1, f1, sp1, c2, j2, f2, sp2)
	}
}

// TestJitterChangesTiming guards against the perturber silently not
// being wired in: with jitter on, at least one seed must change the
// cycle count relative to the unperturbed run.
func TestJitterChangesTiming(t *testing.T) {
	g := testGraph()
	s := schedule(t)
	cfg := accel.DefaultConfig(accel.SchemePseudoDFS)
	a, err := accel.New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		c := cfg
		c.Perturb = New(Config{Seed: seed, JitterPct: 40})
		a, err := accel.New(g, s, c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles != base.Cycles {
			return // timing moved: the hook is live
		}
	}
	t.Fatalf("40%% jitter never changed the cycle count (base %d); perturber not wired?", base.Cycles)
}

func ExampleInjector() {
	g := gen.RMAT(256, 1200, 0.57, 0.17, 0.17, 1)
	s, _ := pattern.Build(pattern.Triangle())
	golden := mine.ParallelCount(g, s, 2).Embeddings
	cfg := accel.DefaultConfig(accel.SchemeShogun)
	in := New(Config{Seed: 3, JitterPct: 20, FlipPeriod: 2000})
	cfg.Perturb = in
	a, _ := accel.New(g, s, cfg)
	in.Attach(a)
	res, _ := a.Run()
	fmt.Println(res.Embeddings == golden)
	// Output: true
}
