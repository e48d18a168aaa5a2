package accel

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"shogun/internal/datasets"
	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mem"
	"shogun/internal/pattern"
)

func TestEmptyAndTinyGraphs(t *testing.T) {
	s, _ := pattern.Build(pattern.Triangle())
	cases := map[string]*graph.Graph{
		"empty":     graph.MustNew(0, nil),
		"isolated":  graph.MustNew(5, nil),
		"one-edge":  graph.MustNew(2, []graph.Edge{{U: 0, V: 1}}),
		"triangle":  gen.Clique(3),
		"too-small": gen.Clique(2),
	}
	want := map[string]int64{"empty": 0, "isolated": 0, "one-edge": 0, "triangle": 1, "too-small": 0}
	for name, g := range cases {
		for _, scheme := range []Scheme{SchemeShogun, SchemePseudoDFS, SchemeDFS} {
			cfg := DefaultConfig(scheme)
			cfg.NumPEs = 2
			a, err := New(g, s, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scheme, err)
			}
			res, err := a.Run()
			if err != nil {
				t.Fatalf("%s/%s: %v", name, scheme, err)
			}
			if res.Embeddings != want[name] {
				t.Errorf("%s/%s: %d embeddings, want %d", name, scheme, res.Embeddings, want[name])
			}
		}
	}
}

func TestDeadlineAborts(t *testing.T) {
	g := gen.RMAT(1<<10, 8000, 0.6, 0.15, 0.15, 2)
	s, _ := pattern.Build(pattern.FourClique())
	cfg := DefaultConfig(SchemeShogun)
	cfg.Deadline = 50 // absurdly tight
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline not enforced: %v", err)
	}
}

func TestMorePEsThanRoots(t *testing.T) {
	g := gen.Clique(6)
	s, _ := pattern.Build(pattern.Triangle())
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 16 // more PEs than vertices
	cfg.EnableSplitting = true
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 20 {
		t.Fatalf("K6 triangles = %d", res.Embeddings)
	}
}

func TestSingleEntryBunches(t *testing.T) {
	// Degenerate tree geometry: width 1, single-entry bunches.
	g := gen.RMAT(128, 700, 0.6, 0.15, 0.15, 7)
	s, _ := pattern.Build(pattern.FourClique())
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 2
	cfg.PE.Width = 1
	cfg.TokensPerDepth = 1
	cfg.Tree.EntriesPerBunch = 1
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(g, s, DefaultConfig(SchemeShogun))
	ref, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != ref.Embeddings {
		t.Fatalf("width-1 tree miscounted: %d != %d", res.Embeddings, ref.Embeddings)
	}
}

func TestAblationKnobsPreserveCounts(t *testing.T) {
	g := gen.RMAT(256, 1400, 0.6, 0.15, 0.15, 19)
	s, _ := pattern.Build(pattern.FourCycle())
	base, _ := New(g, s, DefaultConfig(SchemeShogun))
	ref, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Tree.NoSiblingPreference = true },
		func(c *Config) { c.ForceConservative = true },
		func(c *Config) { c.PE.MonitorPeriod = 0 },
		func(c *Config) { c.TokensPerDepth = 2 },
		func(c *Config) { c.Tree.BunchesPerDepth = 1 },
	} {
		cfg := DefaultConfig(SchemeShogun)
		cfg.NumPEs = 4
		mutate(&cfg)
		a, err := New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Embeddings != ref.Embeddings {
			t.Fatalf("ablation variant miscounted: %d != %d", res.Embeddings, ref.Embeddings)
		}
	}
}

// TestMergingDefaultTokens pins TokensPerDepth's documented default
// (the PE width) on the merging path. The second depth-1 bunch doubles
// the depth-1 token cap, and that cap must come from the defaulted
// quota: doubling the raw zero left depth 1 with no tokens, and the run
// never finished. The event budget turns such a regression into a
// typed error instead of a hang.
func TestMergingDefaultTokens(t *testing.T) {
	g, err := datasets.Get("wi")
	if err != nil {
		t.Fatal(err)
	}
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	var blobs [2][]byte
	for i, tokens := range []int{0, DefaultConfig(SchemeShogun).PE.Width} {
		cfg := DefaultConfig(SchemeShogun)
		cfg.EnableMerging = true
		cfg.TokensPerDepth = tokens
		cfg.MaxEvents = 2_000_000
		a, err := New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatalf("TokensPerDepth=%d: %v", tokens, err)
		}
		if blobs[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("TokensPerDepth=0 ran differently from the explicit width:\n0:     %s\nwidth: %s", blobs[0], blobs[1])
	}
}

// TestCheckAddressRange tables the build-time tag-range guard over
// address maps written out directly, so no graph large enough to reach
// the range has to be built.
func TestCheckAddressRange(t *testing.T) {
	cfg := DefaultConfig(SchemeShogun)
	table3 := []*mem.Cache{mem.NewCache(cfg.PE.L1, nil), mem.NewCache(cfg.L2, nil)}
	// One set of 16 ways: the smallest tag range, 2^31-1 lines.
	oneSet := []*mem.Cache{mem.NewCache(mem.CacheConfig{Name: "one-set", SizeKB: 1, Ways: 16, HitLat: 1}, nil)}
	end := int64(1<<31-1) << mem.LineShift // first byte past oneSet's range
	edge := mem.AddressMap{CSRBase: 1 << 20, InterBase: end - 10*4096, SetStride: 4096}
	cases := []struct {
		name   string
		m      mem.AddressMap
		slots  int64
		caches []*mem.Cache
		ok     bool
	}{
		{"table3 lj-sized", mem.NewAddressMap(1<<27, 1<<16), 256 * 320, table3, true},
		{"graph region past the range", mem.AddressMap{CSRBase: 1 << 20, InterBase: 1 << 60, SetStride: 64}, 0, table3, false},
		{"slots past the range", mem.AddressMap{CSRBase: 1 << 20, InterBase: 1 << 30, SetStride: 1 << 30}, 1 << 20, table3, false},
		{"last slot ends on the range", edge, 10, oneSet, true},
		{"one slot more", edge, 11, oneSet, false},
		{"smallest cache decides", edge, 11, append(oneSet, table3...), false},
		{"graph region ends on the range", mem.AddressMap{CSRBase: 1 << 20, InterBase: end + mem.LineBytes, SetStride: 64}, 0, oneSet, true},
		{"graph region one line past", mem.AddressMap{CSRBase: 1 << 20, InterBase: end + 2*mem.LineBytes, SetStride: 64}, 0, oneSet, false},
	}
	for _, c := range cases {
		err := checkAddressRange(c.m, c.slots, c.caches)
		if (err == nil) != c.ok {
			t.Errorf("%s: checkAddressRange = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
