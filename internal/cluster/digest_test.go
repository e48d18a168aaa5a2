package cluster_test

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/chaos"
	"shogun/internal/cluster"
	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/pattern"
	"shogun/internal/policy"
	"shogun/internal/sim"
	"shogun/internal/task"
	"shogun/internal/telemetry"
)

// refDigests is the reference for the runs' latency digests: the
// observation as it was before cache hits were folded. The reference is
// an unsampled run's own bundle, driven by the test without the run-end
// fold (Telemetry.Series), so no fold ever touches it and every miss,
// task lifetime and queue wait is observed as the run makes it. After
// the run, replay observes the hit latency once per counted hit, as
// Cache.Access once did on its hit path.
type refDigests map[string]*telemetry.Histogram

var refNames = []string{"task-lifetime", "queue-wait", "l1-latency", "l2-latency"}

// refRun runs chips, which share eng and record into tel with sampling
// off, to the end and replays their hits into tel's histograms.
func refRun(t *testing.T, eng *sim.Engine, chips []*accel.Accelerator, tel *accel.Telemetry, cfg accel.Config) refDigests {
	t.Helper()
	if tel.Sampler != nil {
		t.Fatal("reference run must have sampling off")
	}
	for _, chip := range chips {
		chip.Start()
	}
	for eng.Step() {
	}
	for _, chip := range chips {
		if err := chip.Drained(); err != nil {
			t.Fatal(err)
		}
		for _, p := range chip.PEs() {
			for i := int64(0); i < p.L1.Hits; i++ {
				tel.L1Latency.Observe(int64(cfg.PE.L1.HitLat))
			}
		}
		l2Hits, _ := chip.Metrics().Value("l2/hits")
		for i := int64(0); i < l2Hits; i++ {
			tel.L2Latency.Observe(int64(cfg.L2.HitLat))
		}
	}
	ref := refDigests{}
	for _, name := range refNames {
		ref[name] = tel.Digests()[name]
	}
	return ref
}

// newChip builds a chip as accel.New does and returns it with the
// telemetry bundle it records into.
func newChip(t *testing.T, g *graph.Graph, s *pattern.Schedule, cfg accel.Config) (*accel.Accelerator, *accel.Telemetry) {
	t.Helper()
	eng := sim.NewEngine()
	var a *accel.Accelerator
	tel, err := accel.NewTelemetry(cfg, eng, func() bool { return !a.ChipIdle() })
	if err != nil {
		t.Fatal(err)
	}
	if a, err = accel.NewShared(g, s, cfg, eng, policy.AllRoots(g).Vertices, tel, task.NewCandPool(g), 0); err != nil {
		t.Fatal(err)
	}
	return a, tel
}

func sameDigests(t *testing.T, cell string, got map[string]*telemetry.Histogram, ref refDigests) {
	t.Helper()
	for _, name := range refNames {
		g, w := got[name], ref[name]
		if w.Count() == 0 {
			t.Errorf("%s: reference %s is empty; the cell proves nothing", cell, name)
		}
		if !g.Equal(w) || g.Min() != w.Min() || g.Max() != w.Max() {
			t.Errorf("%s: %s digest differs from the per-hit reference:\n got: %s\n ref: %s", cell, name, g, w)
		}
	}
}

// sampledIsUnsampled is the one-path identity: a sampled and an
// unsampled run of one cell leave all five histograms bit-identical,
// and each run's Result reports its histograms' summaries.
func sampledIsUnsampled(t *testing.T, cell string, on, off map[string]*telemetry.Histogram, onRes, offRes map[string]telemetry.HistSummary) {
	t.Helper()
	for name, h := range on {
		if o := off[name]; !h.Equal(o) || h.Min() != o.Min() || h.Max() != o.Max() {
			t.Errorf("%s: %s digest differs with sampling on:\n on: %s\noff: %s", cell, name, h, o)
		}
	}
	if want := telemetry.Summaries(on); !maps.Equal(onRes, want) || !maps.Equal(offRes, want) {
		t.Errorf("%s: Result digests sampled %v, unsampled %v, want %v", cell, onRes, offRes, want)
	}
}

// TestDigestsMatchPerHitReference: folding cache hits in at sampler
// epochs and at run end leaves every digest bit-identical (bucket
// counts, count, sum, min, max) to observing each hit as it happens,
// with sampling on and off, over the conformance matrix, 1- and 3-chip
// clusters, and chaos runs with latency jitter. Each cell also checks
// that its sampled and unsampled runs report the same five digests.
func TestDigestsMatchPerHitReference(t *testing.T) {
	t.Run("conformance-matrix", func(t *testing.T) {
		for _, gr := range []struct {
			name string
			seed int64
		}{{"rmat", 42}, {"plc", 43}} {
			g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, gr.seed)
			if gr.name == "plc" {
				g = gen.PowerLawCluster(300, 6, 0.6, gr.seed)
			}
			for _, wl := range datasets.Workloads() {
				for _, v := range variants() {
					cfg := accel.DefaultConfig(v.scheme)
					cfg.NumPEs = 4
					if v.mutate != nil {
						v.mutate(&cfg)
					}
					build := func(sample bool) (*accel.Accelerator, *accel.Telemetry) {
						c := cfg
						if sample {
							c.SampleEvery = 512
						}
						return newChip(t, g, wl.Schedule, c)
					}
					cell := fmt.Sprintf("%s/%s/%s", gr.name, wl.Name, v.name)
					r, rtel := build(false)
					ref := refRun(t, r.Engine(), []*accel.Accelerator{r}, rtel, cfg)
					var res [2]*accel.Result
					var tel [2]*accel.Telemetry
					for i, sample := range []bool{true, false} {
						var a *accel.Accelerator
						a, tel[i] = build(sample)
						var err error
						if res[i], err = a.Run(); err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						sameDigests(t, fmt.Sprintf("%s (sampled %t)", cell, sample), tel[i].Digests(), ref)
					}
					sampledIsUnsampled(t, cell, tel[0].Digests(), tel[1].Digests(), res[0].Digests, res[1].Digests)
				}
			}
		}
	})

	g := gen.RMAT(1<<9, 3000, 0.6, 0.15, 0.15, 7)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		chips  int
		jitter bool
	}{{"1-chip", 1, false}, {"3-chip", 3, false}, {"3-chip-jitter", 3, true}, {"1-chip-jitter", 1, true}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cluster.DefaultConfig(accel.SchemeShogun, c.chips)
			cfg.Chip.NumPEs = 4
			cfg.Chip.EnableSplitting = true
			cfg.Chip.EnableMerging = true
			build := func(sample bool) *cluster.Cluster {
				cc := cfg
				if sample {
					cc.Chip.SampleEvery = 512
				}
				if c.jitter {
					cc.Chip.Perturb = chaos.New(chaos.Config{Seed: 5, JitterPct: 25})
				}
				cl, err := cluster.New(g, s, cc)
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			r := build(false)
			ref := refRun(t, r.Engine(), r.Chips(), r.Telemetry(), cfg.Chip)
			var res [2]*cluster.Result
			var digests [2]map[string]*telemetry.Histogram
			for i, sample := range []bool{true, false} {
				cl := build(sample)
				if res[i], err = cl.RunContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				// Every chip records into the machine's one bundle.
				digests[i] = cl.Telemetry().Digests()
				sameDigests(t, fmt.Sprintf("%s (sampled %t)", c.name, sample), digests[i], ref)
				live := cl.Histograms()
				for name, w := range telemetry.Summaries(ref) {
					if live[name] != w {
						t.Errorf("sampled %t: Cluster.Histograms()[%s] = %+v, reference %+v", sample, name, live[name], w)
					}
				}
				if !maps.Equal(res[i].Machine().Digests, res[i].Digests) || res[i].ChipResults[0].Digests != nil {
					t.Errorf("sampled %t: machine digests %v, cluster %v, chip 0 %v; want the cluster's on the machine only",
						sample, res[i].Machine().Digests, res[i].Digests, res[i].ChipResults[0].Digests)
				}
			}
			sampledIsUnsampled(t, c.name, digests[0], digests[1], res[0].Digests, res[1].Digests)
		})
	}

	t.Run("chaos-flips-splits", func(t *testing.T) {
		s, err := pattern.Build(pattern.Triangle())
		if err != nil {
			t.Fatal(err)
		}
		g := gen.RMAT(1<<9, 3000, 0.57, 0.17, 0.17, 42)
		for seed := int64(1); seed <= 3; seed++ {
			cfg := accel.DefaultConfig(accel.SchemeShogun)
			cfg.EnableSplitting = true
			cfg.EnableMerging = true
			build := func(sample bool) (*accel.Accelerator, *accel.Telemetry) {
				c := cfg
				if sample {
					c.SampleEvery = 512
				}
				in := chaos.New(chaos.Config{Seed: seed, JitterPct: 25, FlipPeriod: 1500, SplitPeriod: 2500})
				c.Perturb = in
				a, tel := newChip(t, g, s, c)
				in.Attach(a)
				return a, tel
			}
			cell := fmt.Sprintf("seed %d", seed)
			r, rtel := build(false)
			ref := refRun(t, r.Engine(), []*accel.Accelerator{r}, rtel, cfg)
			var res [2]*accel.Result
			var tel [2]*accel.Telemetry
			for i, sample := range []bool{true, false} {
				var a *accel.Accelerator
				a, tel[i] = build(sample)
				if res[i], err = a.Run(); err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				sameDigests(t, fmt.Sprintf("%s (sampled %t)", cell, sample), tel[i].Digests(), ref)
			}
			sampledIsUnsampled(t, cell, tel[0].Digests(), tel[1].Digests(), res[0].Digests, res[1].Digests)
		}
	})
}

// TestLiveTelemetryReads reads the machine digests and series from
// another goroutine while a sampled 2-chip run proceeds (run it under
// -race). Live digests only grow: a cache hit reaches its bucket at
// the next epoch, never earlier and never twice.
func TestLiveTelemetryReads(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 1)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 2)
	cfg.Chip.NumPEs = 4
	cfg.Chip.EnableSplitting = true
	cfg.Chip.EnableMerging = true
	cfg.Chip.SampleEvery = 256
	c, err := cluster.New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	var reads int
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-done:
				return
			default:
			}
			h := c.Histograms()
			ts := c.Samples()
			if h == nil || ts == nil {
				readErr = fmt.Errorf("live read returned nil with sampling on")
				return
			}
			n := h["l1-latency"].Count
			if n < last {
				readErr = fmt.Errorf("live l1-latency count fell from %d to %d", last, n)
				return
			}
			last = n
			reads++
		}
	}()
	res, err := c.RunContext(context.Background())
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	if reads == 0 {
		t.Fatal("no live read completed")
	}
	var accesses int64
	for _, chip := range c.Chips() {
		for _, p := range chip.PEs() {
			accesses += p.L1.Accesses
		}
	}
	if got := c.Histograms()["l1-latency"].Count; got != accesses {
		t.Fatalf("final l1-latency count %d, want one per L1 access (%d)", got, accesses)
	}
	if res.Telemetry == nil || len(res.Telemetry.Cycles) == 0 {
		t.Fatal("no machine series")
	}
	t.Logf("%d live reads", reads)
}
