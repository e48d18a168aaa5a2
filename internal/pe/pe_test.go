package pe_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/mem"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/pe"
	"shogun/internal/policy"
	"shogun/internal/sim"
	"shogun/internal/task"
)

// flatMem is a fixed-latency memory level.
type flatMem struct{ lat sim.Time }

func (f flatMem) Access(now sim.Time, addr int64, write bool) sim.Time { return now + f.lat }

func buildPE(t *testing.T, cfg pe.Config, w *task.Workload) *pe.PE {
	t.Helper()
	eng := sim.NewEngine()
	p, err := pe.New(0, eng, cfg, w, flatMem{lat: 30})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runWorkload(t *testing.T, cfg pe.Config, pol func(*task.Workload, *policy.Tokens) pe.Policy, g interface {
	NumVertices() int
}, w *task.Workload) *pe.PE {
	t.Helper()
	p := buildPE(t, cfg, w)
	tokens := policy.NewTokens(0, 1, w.S.Depth(), cfg.Width)
	p.SetPolicy(pol(w, tokens))
	p.Kick()
	p.Eng.Run()
	if p.HasWork() {
		t.Fatal("PE drained with pending work")
	}
	return p
}

func TestPEDrivesDFSPolicyToExactCount(t *testing.T) {
	g := gen.RMAT(128, 600, 0.6, 0.15, 0.15, 17)
	for _, pat := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.Diamond()} {
		s, err := pattern.Build(pat)
		if err != nil {
			t.Fatal(err)
		}
		w := task.NewWorkload(g, s, task.NewCandPool(g))
		want := mine.Count(g, s)
		p := runWorkload(t, pe.DefaultConfig(), func(w *task.Workload, tk *policy.Tokens) pe.Policy {
			return policy.NewDFS(w, tk, policy.AllRoots(g))
		}, g, w)
		if p.Embeddings != want {
			t.Errorf("%s: PE counted %d, want %d", s.Name, p.Embeddings, want)
		}
		if p.Eng.Now() <= 0 {
			t.Error("no simulated time elapsed")
		}
		if p.Slots.InUse() != 0 {
			t.Error("slots leaked")
		}
		if p.SPM.InUse() != 0 {
			t.Error("SPM lines leaked")
		}
	}
}

func TestWidthScalesParallelDFS(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 23)
	s, _ := pattern.Build(pattern.FourClique())
	run := func(width int) sim.Time {
		cfg := pe.DefaultConfig()
		cfg.Width = width
		w := task.NewWorkload(g, s, task.NewCandPool(g))
		p := buildPE(t, cfg, w)
		tokens := policy.NewTokens(0, 1, s.Depth(), width)
		p.SetPolicy(policy.NewParallelDFS(w, tokens, policy.AllRoots(g), width))
		p.Kick()
		p.Eng.Run()
		return p.LastActive
	}
	w1, w8 := run(1), run(8)
	if float64(w1)/float64(w8) < 2 {
		t.Errorf("width 8 speedup only %.2fx over width 1 (%d vs %d)", float64(w1)/float64(w8), w1, w8)
	}
}

func TestMonitorSamplesAndConservativeMode(t *testing.T) {
	// A tiny L1 with a slow parent forces high window latencies; the
	// monitor must flip to conservative mode and inform the policy.
	g := gen.RMAT(512, 6000, 0.62, 0.14, 0.14, 31)
	s, _ := pattern.Build(pattern.FourCycle())
	cfg := pe.DefaultConfig()
	cfg.L1.SizeKB = 1
	cfg.MonitorPeriod = 256
	cfg.ConservLatThresh = 5

	w := task.NewWorkload(g, s, task.NewCandPool(g))
	eng := sim.NewEngine()
	p, err := pe.New(0, eng, cfg, w, flatMem{lat: 120})
	if err != nil {
		t.Fatal(err)
	}
	tokens := policy.NewTokens(0, 1, s.Depth(), cfg.Width)
	spy := &conservativeSpy{Policy: policy.NewParallelDFS(w, tokens, policy.AllRoots(g), cfg.Width)}
	p.SetPolicy(spy)
	p.Kick()
	// Step event by event and catch every monitor tick: only a tick
	// overwrites LastSample, so a sentinel planted before each step
	// shows which steps ticked.
	sentinel := pe.MonitorSample{L1AvgLat: -1}
	digest := fnv.New64a()
	var ticks, withData int
	for {
		p.LastSample = sentinel
		if !eng.Step() {
			break
		}
		smp := p.LastSample
		if smp == sentinel {
			continue
		}
		ticks++
		if smp.L1HasData {
			withData++
		}
		var rec [25]byte
		binary.LittleEndian.PutUint64(rec[0:], uint64(eng.Now()))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(smp.L1AvgLat))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(smp.IUUtil))
		if smp.L1HasData {
			rec[24] = 1
		}
		digest.Write(rec[:])
	}
	if !spy.sawConservative {
		t.Fatal("policy was not informed of conservative mode")
	}
	// The monitor's windows decide these runs, so the exact transition
	// count, drain time and every tick's (time, sample) are pinned.
	type pin struct {
		transitions     int64
		lastActive      sim.Time
		ticks, withData int
		digest          uint64
	}
	got := pin{p.ConservativeTransitions, p.LastActive, ticks, withData, digest.Sum64()}
	want := pin{transitions: 746, lastActive: 3741539, ticks: 14616, withData: 14615, digest: 13232589506586217999}
	if got != want {
		t.Fatalf("monitor run = %+v, want %+v", got, want)
	}
}

type conservativeSpy struct {
	pe.Policy
	sawConservative bool
}

func (c *conservativeSpy) SetConservative(on bool) {
	if on {
		c.sawConservative = true
	}
	c.Policy.SetConservative(on)
}

func TestSPMNeverSerializesBelowWidth(t *testing.T) {
	// Hub sets larger than the whole SPM must still stream: the per-task
	// reservation is capped at SPMLines/Width.
	g := gen.Clique(64) // every set is 63 ids = 4 lines; make SPM tiny
	s, _ := pattern.Build(pattern.FourClique())
	cfg := pe.DefaultConfig()
	cfg.SPMLines = 16 // window = 2 lines per task
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	want := mine.Count(g, s)
	p := runWorkload(t, cfg, func(w *task.Workload, tk *policy.Tokens) pe.Policy {
		return policy.NewParallelDFS(w, tk, policy.AllRoots(g), cfg.Width)
	}, g, w)
	if p.Embeddings != want {
		t.Fatalf("count %d != %d under SPM pressure", p.Embeddings, want)
	}
	if p.SPM.Peak() > cfg.SPMLines {
		t.Fatalf("SPM over-committed: peak %d > %d", p.SPM.Peak(), cfg.SPMLines)
	}
}

func TestIUPoolAccountsComputeWork(t *testing.T) {
	g := gen.Clique(32)
	s, _ := pattern.Build(pattern.FourClique())
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	p := runWorkload(t, pe.DefaultConfig(), func(w *task.Workload, tk *policy.Tokens) pe.Policy {
		return policy.NewDFS(w, tk, policy.AllRoots(g))
	}, g, w)
	if p.IUPool.Busy() == 0 {
		t.Fatal("no IU work accounted for clique intersections")
	}
	if p.DivPool.Busy() == 0 {
		t.Fatal("no divider work accounted")
	}
	if p.IUUtilization(p.LastActive) <= 0 {
		t.Fatal("IU utilization not reported")
	}
}

func TestL1SeesIntermediateTraffic(t *testing.T) {
	g := gen.Clique(32)
	s, _ := pattern.Build(pattern.FourClique())
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	p := runWorkload(t, pe.DefaultConfig(), func(w *task.Workload, tk *policy.Tokens) pe.Policy {
		return policy.NewDFS(w, tk, policy.AllRoots(g))
	}, g, w)
	if p.L1.Hits+p.L1.Misses == 0 {
		t.Fatal("L1 never accessed")
	}
	if p.IntermediateIn == 0 {
		t.Fatal("no intermediate input lines accounted (Table 2 metric)")
	}
}

func TestDefaultConfigSanity(t *testing.T) {
	cfg := pe.DefaultConfig()
	if cfg.Width != 8 || cfg.Dividers != 12 || cfg.IUs != 24 {
		t.Fatalf("Table 3 mismatch: %+v", cfg)
	}
	if cfg.SPMLines*mem.LineBytes != 16*1024 {
		t.Fatalf("SPM size %d bytes, want 16KB", cfg.SPMLines*mem.LineBytes)
	}
	if cfg.L1.SizeKB != 32 || cfg.L1.Ways != 4 {
		t.Fatalf("L1 config mismatch: %+v", cfg.L1)
	}
}
