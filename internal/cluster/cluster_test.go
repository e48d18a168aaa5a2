package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/chaos"
	"shogun/internal/cluster"
	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/metrics"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/sim/simtest"
)

// variant mirrors the accel conformance matrix: every scheduling scheme
// plus the Shogun optimization combinations.
type variant struct {
	name   string
	scheme accel.Scheme
	mutate func(*accel.Config)
}

func variants() []variant {
	return []variant{
		{"bfs", accel.SchemeBFS, nil},
		{"dfs", accel.SchemeDFS, nil},
		{"pseudo-dfs", accel.SchemePseudoDFS, nil},
		{"parallel-dfs", accel.SchemeParallelDFS, nil},
		{"shogun", accel.SchemeShogun, nil},
		{"shogun+split", accel.SchemeShogun, func(c *accel.Config) { c.EnableSplitting = true }},
		{"shogun+merge", accel.SchemeShogun, func(c *accel.Config) { c.EnableMerging = true }},
		{"shogun+split+merge", accel.SchemeShogun, func(c *accel.Config) {
			c.EnableSplitting = true
			c.EnableMerging = true
		}},
	}
}

func workload(t testing.TB, name string) datasets.Workload {
	for _, wl := range datasets.Workloads() {
		if wl.Name == name {
			return wl
		}
	}
	t.Fatalf("no workload %q", name)
	return datasets.Workload{}
}

// TestClusterDifferentialN1 is the scale-out equivalence gate: a 1-chip
// cluster in replicated mode must be BIT-IDENTICAL to the single-chip
// engine — the full Result JSON (cycles, per-PE breakdowns, telemetry
// time series), and every hardware counter — across the conformance
// matrix's scheme variants. The cluster layer may add no events,
// reorder nothing, and perturb no counter when it degenerates to one
// chip. The calendar leg runs the cluster as is; the heap leg adds
// far-future background noise to the cluster's engine (simtest.Noise),
// so the calendar queue's overflow heap stays populated and every pop
// weighs the ring head against the heap head. Only the noise's own
// deliveries may show, in the event counts, and they are taken out.
func TestClusterDifferentialN1(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	for _, wl := range datasets.Workloads() {
		for i, v := range variants() {
			t.Run(fmt.Sprintf("%s/%s", wl.Name, v.name), func(t *testing.T) {
				cfg := accel.DefaultConfig(v.scheme)
				cfg.NumPEs = 4
				cfg.SampleEvery = 512 // telemetry series must match too
				if v.mutate != nil {
					v.mutate(&cfg)
				}

				a, err := accel.New(g, wl.Schedule, cfg)
				if err != nil {
					t.Fatalf("accel new: %v", err)
				}
				single, err := a.Run()
				if err != nil {
					t.Fatalf("accel run: %v", err)
				}
				sj, _ := json.Marshal(single)
				singleSnap := a.Metrics().Snapshot()

				for _, leg := range []string{"calendar", "heap"} {
					t.Run(leg, func(t *testing.T) {
						ccfg := cluster.DefaultConfig(v.scheme, 1)
						ccfg.Chip = cfg
						cl, err := cluster.New(g, wl.Schedule, ccfg)
						if err != nil {
							t.Fatalf("cluster new: %v", err)
						}
						var n *simtest.Noise
						if leg == "heap" {
							n = simtest.NewNoise(cl.Engine(), int64(i), true)
						}
						res, err := cl.RunContext(context.Background())
						if err != nil {
							t.Fatalf("cluster run: %v", err)
						}

						// The machine aggregate every caller reports from
						// is the chip's Result at one chip, plus the
						// machine series and digests the chip result
						// carries no copy of.
						m := res.Machine()
						chip := *res.ChipResults[0]
						if chip.Telemetry != nil || chip.Digests != nil {
							t.Error("chip result carries its own copy of the series or digests")
						}
						chip.Telemetry, chip.Digests = m.Telemetry, m.Digests
						mj, _ := json.Marshal(m)
						if cj, _ := json.Marshal(chip); string(mj) != string(cj) {
							t.Errorf("1-chip machine aggregate diverged from its chip:\nchip:    %s\nmachine: %s", cj, mj)
						}
						snap := cl.Chips()[0].Metrics().Snapshot()
						if n != nil {
							m.Events -= n.Fired()
							snap["engine/events"] -= n.Fired()
							n.Discount(m.Telemetry)
						}
						mj, _ = json.Marshal(m)
						if string(sj) != string(mj) {
							t.Errorf("1-chip cluster Result diverged from single-chip engine:\nsingle:  %s\ncluster: %s", sj, mj)
						}
						if diff := metrics.Diff(singleSnap, snap); len(diff) > 0 {
							t.Errorf("hardware counters diverged: %v", diff)
						}
						if res.Migrations != 0 || res.InterMessages != 0 {
							t.Errorf("1-chip cluster used the interconnect: migrations=%d messages=%d", res.Migrations, res.InterMessages)
						}
					})
				}
			})
		}
	}
}

// TestClusterMetamorphicCounts pins the scale-out metamorphic property:
// embedding counts are a function of the graph and pattern alone —
// invariant to chip count, partition strategy, and partition seed. Every
// cell must match the software golden miner bit-exactly, and the
// cross-chip conservation pass (on by default) must hold.
func TestClusterMetamorphicCounts(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(192, 1100, 0.6, 0.15, 0.15, 7)}, // wi analogue
		{"plc", gen.PowerLawCluster(220, 5, 0.55, 9)},     // or analogue
	}
	for _, gr := range graphs {
		for _, wlName := range []string{"tc", "4cl", "dia_v"} {
			wl := workload(t, wlName)
			want := mine.Count(gr.g, wl.Schedule)
			for _, chips := range []int{1, 2, 4, 8} {
				for _, mode := range []cluster.Mode{cluster.ModeReplicate, cluster.ModeHash, cluster.ModeRange} {
					seeds := []int64{0}
					if mode == cluster.ModeHash {
						seeds = []int64{0, 1, 99}
					}
					for _, seed := range seeds {
						name := fmt.Sprintf("%s/%s/chips=%d/%s/seed=%d", gr.name, wlName, chips, mode, seed)
						t.Run(name, func(t *testing.T) {
							cfg := cluster.DefaultConfig(accel.SchemeShogun, chips)
							cfg.Partition = mode
							cfg.PartitionSeed = seed
							cfg.Chip.NumPEs = 2
							cfg.Chip.EnableSplitting = true
							cfg.Chip.EnableMerging = true
							cl, err := cluster.New(gr.g, wl.Schedule, cfg)
							if err != nil {
								t.Fatalf("new: %v", err)
							}
							res, err := cl.RunContext(context.Background())
							if err != nil {
								t.Fatalf("run: %v", err)
							}
							if res.Embeddings != want {
								t.Errorf("embeddings = %d, golden miner = %d", res.Embeddings, want)
							}
							if res.Cycles <= 0 || res.Tasks <= 0 {
								t.Errorf("degenerate run: cycles=%d tasks=%d", res.Cycles, res.Tasks)
							}
						})
					}
				}
			}
		}
	}
}

// TestClusterConservationUnderChaos drives a 4-chip cluster with seeded
// fault injection on every chip — service-time jitter (including the
// interconnect links), forced conservative-mode flips, forced intra-chip
// splits — plus forced chip-level migrations on the cluster's own tick.
// For every seed: the embedding/task counts stay bit-exact against the
// undisturbed baseline, the cross-chip conservation identities hold, and
// every chip's own invariant registry passes.
func TestClusterConservationUnderChaos(t *testing.T) {
	g := gen.RMAT(192, 1100, 0.6, 0.15, 0.15, 11)
	wl := workload(t, "4cl")

	base := func() cluster.Config {
		cfg := cluster.DefaultConfig(accel.SchemeShogun, 4)
		cfg.Chip.NumPEs = 2
		cfg.Chip.EnableSplitting = true
		cfg.Chip.EnableMerging = true
		return cfg
	}
	cl, err := cluster.New(g, wl.Schedule, base())
	if err != nil {
		t.Fatalf("baseline new: %v", err)
	}
	baseline, err := cl.RunContext(context.Background())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	var totalMigrations int64
	for seed := int64(0); seed < 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := base()
			cl, err := cluster.New(g, wl.Schedule, cfg)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			var injectors []*chaos.Injector
			for i, chip := range cl.Chips() {
				in := chaos.New(chaos.Config{
					Seed:        seed*100 + int64(i),
					JitterPct:   25,
					FlipPeriod:  3000,
					SplitPeriod: 2500,
				})
				chip.InstallPerturb(in)
				in.Attach(chip)
				injectors = append(injectors, in)
			}
			// Jitter the interconnect links and force chip-level
			// migrations mid-run on their own injector.
			clIn := chaos.New(chaos.Config{Seed: seed + 7777, JitterPct: 40})
			cl.Interconnect().SetPerturb(clIn)
			clIn.AttachCluster(cl, 2000)

			res, err := cl.RunContext(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Embeddings != baseline.Embeddings || res.Tasks != baseline.Tasks || res.LeafTasks != baseline.LeafTasks {
				t.Errorf("counts drifted under chaos: emb %d vs %d, tasks %d vs %d, leaves %d vs %d",
					res.Embeddings, baseline.Embeddings, res.Tasks, baseline.Tasks, res.LeafTasks, baseline.LeafTasks)
			}
			if err := cl.Verify(); err != nil {
				t.Errorf("conservation: %v", err)
			}
			var injected int64
			for _, in := range injectors {
				injected += in.Jitters + in.Flips + in.Splits
			}
			if injected == 0 {
				t.Error("chaos harness injected nothing — the test proved nothing")
			}
			totalMigrations += clIn.Migrations + res.Migrations
		})
	}
	if totalMigrations == 0 {
		t.Error("no chip-level migration occurred across any seed — cluster stealing untested")
	}
}

// TestClusterDeterminism: same config, same seeds → bit-identical runs,
// including under active stealing at 4 chips.
func TestClusterDeterminism(t *testing.T) {
	g := gen.PowerLawCluster(220, 5, 0.55, 9)
	wl := workload(t, "tc")
	var blobs []string
	var snaps []map[string]int64
	for i := 0; i < 2; i++ {
		cfg := cluster.DefaultConfig(accel.SchemeShogun, 4)
		cfg.Partition = cluster.ModeHash
		cfg.PartitionSeed = 3
		cfg.Chip.NumPEs = 2
		cfg.Chip.EnableSplitting = true
		cfg.Chip.SampleEvery = 512
		cl, err := cluster.New(g, wl.Schedule, cfg)
		if err != nil {
			t.Fatalf("new: %v", err)
		}
		res, err := cl.RunContext(context.Background())
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		b, _ := json.Marshal(res)
		blobs = append(blobs, string(b))
		snaps = append(snaps, cl.Metrics().Snapshot())
	}
	if blobs[0] != blobs[1] {
		t.Error("identical cluster configs produced different results")
	}
	if diff := metrics.Diff(snaps[0], snaps[1]); len(diff) > 0 {
		t.Errorf("counters diverged between identical runs: %v", diff)
	}
}

// TestClusterStealingMovesWork pins that the chip-level stealing path
// actually fires on an imbalanced partition: a range partition of a
// skewed power-law graph concentrates heavy vertices on few chips, and
// idle chips must adopt migrated subtrees.
func TestClusterStealingMovesWork(t *testing.T) {
	g := gen.PowerLawCluster(300, 6, 0.6, 43)
	wl := workload(t, "4cl")
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 4)
	cfg.Partition = cluster.ModeRange
	cfg.Chip.NumPEs = 2
	cfg.Chip.EnableSplitting = true
	cfg.Chip.BalancePeriod = 512
	cl, err := cluster.New(g, wl.Schedule, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := cl.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if want := mine.Count(g, wl.Schedule); res.Embeddings != want {
		t.Fatalf("embeddings = %d, want %d", res.Embeddings, want)
	}
	if res.Migrations == 0 {
		t.Error("no migrations on a skewed range partition — stealing never fired")
	}
	if res.InterLines == 0 {
		t.Error("migrations moved zero interconnect lines")
	}
	var out, in int64
	for _, st := range res.PerChip {
		out += st.MigratedOut
		in += st.MigratedIn
	}
	if out != in || out != res.Migrations {
		t.Errorf("migration bookkeeping: out=%d in=%d delivered=%d", out, in, res.Migrations)
	}
}

// TestClusterSplitLinesCountAdoptions: the machine's split-payload
// histogram observes once per adopted subtree on any chip, whether it
// arrived from a PE on the same chip (§4.1) or from another chip over
// the interconnect — the two transfers share one adopt path.
func TestClusterSplitLinesCountAdoptions(t *testing.T) {
	g := gen.PowerLawCluster(300, 6, 0.6, 43)
	wl := workload(t, "4cl")
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 4)
	cfg.Partition = cluster.ModeRange
	cfg.Chip.NumPEs = 2
	cfg.Chip.EnableSplitting = true
	cfg.Chip.SampleEvery = 1024
	cl, err := cluster.New(g, wl.Schedule, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	chaos.New(chaos.Config{Seed: 7}).AttachCluster(cl, 3000)
	if _, err := cl.RunContext(context.Background()); err != nil {
		t.Fatalf("run: %v", err)
	}
	var splits, migIn int64
	for _, chip := range cl.Chips() {
		splits += chip.Splits
		migIn += chip.MigratedIn
	}
	if splits == 0 || migIn == 0 {
		t.Fatalf("splits=%d migrations in=%d: both paths must fire", splits, migIn)
	}
	if got := cl.Histograms()["split-lines"].Count; got != splits+migIn {
		t.Errorf("split-lines count = %d, want Σ splits + migrations in = %d", got, splits+migIn)
	}
}

// TestClusterTelemetryImbalance: the machine series must expose one
// resident column per PE of every chip, numbered machine-wide, so
// TimeSeries.Imbalance works at cluster scope.
func TestClusterTelemetryImbalance(t *testing.T) {
	g := gen.RMAT(192, 1100, 0.6, 0.15, 0.15, 7)
	wl := workload(t, "tc")
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 3)
	cfg.Chip.NumPEs = 2
	cfg.Chip.SampleEvery = 256
	cl, err := cluster.New(g, wl.Schedule, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := cl.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	ts := res.Telemetry
	if ts == nil {
		t.Fatal("no cluster telemetry despite SampleEvery > 0")
	}
	for i := 0; i < 3*cfg.Chip.NumPEs; i++ {
		if simtest.Col(ts, fmt.Sprintf("pe%d/resident", i)) == nil {
			t.Fatalf("missing machine-wide pe%d/resident column", i)
		}
	}
	pts := ts.Imbalance("/resident")
	if len(pts) == 0 {
		t.Fatal("empty cluster imbalance series")
	}
	var sawLoad bool
	for _, p := range pts {
		if p.Mean > 0 {
			sawLoad = true
			if p.Ratio < 1 {
				t.Errorf("imbalance ratio %v < 1 at cycle %d", p.Ratio, p.Cycle)
			}
		}
	}
	if !sawLoad {
		t.Error("imbalance series never saw load")
	}
	if r := res.ImbalanceRatio(); r < 1 {
		t.Errorf("result-level imbalance ratio %v < 1", r)
	}
	if res.MaxOccupancy <= 0 || res.MaxOccupancy > 1 {
		t.Errorf("max occupancy %v outside (0, 1]", res.MaxOccupancy)
	}
}

// TestClusterConfigErrors covers construction-time validation.
func TestClusterConfigErrors(t *testing.T) {
	g := gen.RMAT(64, 200, 0.6, 0.15, 0.15, 1)
	wl := workload(t, "tc")
	if _, err := cluster.New(g, wl.Schedule, cluster.Config{Chips: 0, Chip: accel.DefaultConfig(accel.SchemeShogun)}); err == nil {
		t.Error("0 chips accepted")
	}
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 2)
	cfg.Partition = "mesh"
	if _, err := cluster.New(g, wl.Schedule, cfg); err == nil {
		t.Error("unknown partition mode accepted")
	}
	cfg = cluster.DefaultConfig(accel.SchemeShogun, 2)
	cfg.Chip.BalancePeriod = 0
	if _, err := cluster.New(g, wl.Schedule, cfg); err == nil {
		t.Error("stealing with a zero steal/retry period accepted")
	}
	if _, err := cluster.ParseMode("blorp"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
	if m, err := cluster.ParseMode(""); err != nil || m != cluster.ModeReplicate {
		t.Errorf("ParseMode(\"\") = %v, %v; want replicate", m, err)
	}
}

// TestClusterMoreChipsThanVertices: a chip the partition leaves empty
// mines nothing. K4 on 8 chips counts its 4 triangles in every mode.
func TestClusterMoreChipsThanVertices(t *testing.T) {
	g, err := graph.ReadEdgeList(strings.NewReader("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload(t, "tc")
	for _, mode := range []cluster.Mode{cluster.ModeReplicate, cluster.ModeHash, cluster.ModeRange} {
		cfg := cluster.DefaultConfig(accel.SchemeShogun, 8)
		cfg.Partition = mode
		cfg.Chip.NumPEs = 2
		cl, err := cluster.New(g, wl.Schedule, cfg)
		if err != nil {
			t.Fatalf("%s: new: %v", mode, err)
		}
		res, err := cl.RunContext(context.Background())
		if err != nil {
			t.Fatalf("%s: run: %v", mode, err)
		}
		if res.Embeddings != 4 {
			t.Errorf("%s: %d triangles on 8 chips, want 4", mode, res.Embeddings)
		}
	}
}

// TestClusterNonShogunSchemes: partitioned runs work for every scheme
// (stealing silently disabled off-Shogun), with exact counts.
func TestClusterNonShogunSchemes(t *testing.T) {
	g := gen.RMAT(128, 600, 0.6, 0.15, 0.15, 5)
	wl := workload(t, "tc")
	want := mine.Count(g, wl.Schedule)
	for _, scheme := range []accel.Scheme{accel.SchemeBFS, accel.SchemeDFS, accel.SchemePseudoDFS, accel.SchemeParallelDFS} {
		t.Run(string(scheme), func(t *testing.T) {
			cfg := cluster.DefaultConfig(scheme, 3)
			cfg.Partition = cluster.ModeHash
			cfg.Chip.NumPEs = 2
			cl, err := cluster.New(g, wl.Schedule, cfg)
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			res, err := cl.RunContext(context.Background())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Embeddings != want {
				t.Errorf("embeddings = %d, want %d", res.Embeddings, want)
			}
			if res.Migrations != 0 {
				t.Errorf("non-Shogun scheme migrated %d subtrees", res.Migrations)
			}
		})
	}
}

// BenchmarkClusterSimulate is the scaling experiment the BENCH_0009
// snapshot records: one workload at 1–16 chips, reporting speedup-
// relevant cycle counts plus chip-occupancy balance and migration
// volume via custom benchmark units.
func BenchmarkClusterSimulate(b *testing.B) { benchCluster(b, []int{1, 2, 4, 8, 16}, 0) }

// BenchmarkClusterSimulateSampled is BenchmarkClusterSimulate's 16-chip
// machine with the telemetry sampler on every 512 cycles: the machine's
// one sampler, tick and digest set, whose bytes ci/check_allocs.sh
// bounds.
func BenchmarkClusterSimulateSampled(b *testing.B) { benchCluster(b, []int{16}, 512) }

// BenchmarkClusterYoTailedTriangle is the benchmark's cluster16-yo-tt_e
// workload as a go test benchmark: yo x tt_e on 16 hash-partitioned
// 2-PE chips with splitting and stealing on, the machine of perfbench's
// clusterConfig. -cpuprofile then gives that workload's function table.
// ci/check_allocs.sh leaves it out.
func BenchmarkClusterYoTailedTriangle(b *testing.B) {
	g, err := datasets.Get("yo")
	if err != nil {
		b.Fatal(err)
	}
	g.HubIndex()
	p, err := pattern.ByName("tt_e")
	if err != nil {
		b.Fatal(err)
	}
	s, err := pattern.BuildWith(p, pattern.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 16)
	cfg.Partition = cluster.ModeHash
	cfg.Chip.NumPEs = 2
	cfg.Chip.EnableSplitting = true
	b.ResetTimer()
	var res *cluster.Result
	for i := 0; i < b.N; i++ {
		cl, err := cluster.New(g, s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res, err = cl.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Cycles), "cycles")
}

func benchCluster(b *testing.B, chipCounts []int, sampleEvery sim.Time) {
	g := gen.RMAT(512, 4000, 0.57, 0.19, 0.19, 21)
	wl := workload(b, "tc")
	for _, chips := range chipCounts {
		b.Run(fmt.Sprintf("chips=%d", chips), func(b *testing.B) {
			var res *cluster.Result
			for i := 0; i < b.N; i++ {
				cfg := cluster.DefaultConfig(accel.SchemeShogun, chips)
				cfg.Partition = cluster.ModeHash
				cfg.Chip.NumPEs = 2
				cfg.Chip.EnableSplitting = true
				cfg.Chip.SampleEvery = sampleEvery
				cl, err := cluster.New(g, wl.Schedule, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err = cl.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Cycles), "cycles")
			b.ReportMetric(res.MaxOccupancy, "max_occ")
			b.ReportMetric(res.MeanOccupancy, "mean_occ")
			b.ReportMetric(res.ImbalanceRatio(), "max_mean_occ")
			b.ReportMetric(float64(res.Migrations), "migrations")
			b.ReportMetric(float64(res.Events)/float64(b.Elapsed().Seconds()*float64(b.N)), "events/s")
		})
	}
}

// TestClusterVerifyViolationText pins what a forced violation reads
// like through the nested chip registries: the Verify error text (chip
// families first, then the cluster's, in declaration order), the
// Report's violated line and a Value lookup under the chip prefix.
func TestClusterVerifyViolationText(t *testing.T) {
	g := gen.RMAT(192, 1100, 0.6, 0.15, 0.15, 11)
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 2)
	cfg.Chip.NumPEs = 2
	cfg.Chip.EnableSplitting = true
	cl, err := cluster.New(g, workload(t, "4cl").Schedule, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	l1 := cl.Chips()[1].PEs()[0].L1
	l1.Hits++
	cl.LinesSent += 5

	reg := cl.Metrics()
	sent, recv := cl.LinesSent, cl.LinesRecv
	moved := cl.Interconnect().LinesMoved
	l1Detail := fmt.Sprintf("parts sum to %d, total is %d (diff 1)", l1.Hits+l1.Misses, l1.Accesses)
	want := "metrics: 3 invariants violated:" +
		"\n  chip1/pe0/l1: accesses == hits + misses: " + l1Detail +
		fmt.Sprintf("\n  cluster: interconnect lines sent == received: %d != %d (diff 5)", sent, recv) +
		fmt.Sprintf("\n  interconnect: lines moved == lines sent: %d != %d (diff -5)", moved, sent)
	if err := reg.Verify(); err == nil || err.Error() != want {
		t.Errorf("Verify:\n got: %v\nwant: %s", err, want)
	}
	line := fmt.Sprintf("  invariant: %-40s %s\n", "accesses == hits + misses", "VIOLATED "+l1Detail)
	if rep := reg.Report(); !strings.Contains(rep, "[chip1/pe0/l1]\n") || !strings.Contains(rep, line) {
		t.Errorf("Report lacks the chip1/pe0/l1 family or its violated line %q", line)
	}
	if v, ok := reg.Value("chip1/pe0/l1/hits"); !ok || v != l1.Hits {
		t.Errorf("Value(chip1/pe0/l1/hits) = %d,%t, want %d,true", v, ok, l1.Hits)
	}
}
