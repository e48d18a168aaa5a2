package accel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/pattern"
)

func TestConfigRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 7
	cfg.PE.Width = 4
	cfg.EnableMerging = true
	cfg.Tree.BunchesPerDepth = 2
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPEs != 7 || got.PE.Width != 4 || !got.EnableMerging || got.Tree.BunchesPerDepth != 2 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Scheme != SchemeShogun {
		t.Fatalf("scheme = %q", got.Scheme)
	}
}

func TestLoadConfigLayersDefaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(path, []byte(`{"Scheme":"fingers","NumPEs":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumPEs != 3 {
		t.Fatalf("NumPEs = %d", cfg.NumPEs)
	}
	// Unspecified fields fall back to Table 3 defaults.
	if cfg.PE.Width != 8 || cfg.PE.IUs != 24 || cfg.L2.SizeKB != 1024 {
		t.Fatalf("defaults not layered: %+v", cfg.PE)
	}
	// The loaded config must actually run.
	g := gen.Clique(10)
	s, _ := pattern.Build(pattern.Triangle())
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 120 {
		t.Fatalf("count = %d", res.Embeddings)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := LoadConfig("/does/not/exist.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{nope"), 0o644)
	if _, err := LoadConfig(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestLoadConfigRetiredQueueKnob pins backward compatibility for retired
// knobs. The fixture is `shogun -dumpconfig -queue heap -pes 4 -split
// -merge` output from before the engine had a single queue: it carries
// three keys Config no longer has, the event-queue knob set to "heap",
// the locality-monitor switch set to false (the monitor is now turned
// off only through PE.MonitorPeriod = 0) and the metrics-verify switch
// set to true (the conservation pass now runs on every run). All three
// must be ignored, leaving exactly the flag-built config, and the run
// must match the default config's run.
func TestLoadConfigRetiredQueueKnob(t *testing.T) {
	path := filepath.Join("testdata", "config_eventqueue_heap.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var fixture, current map[string]any
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	cur, err := json.Marshal(DefaultConfig(SchemeShogun))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(cur, &current); err != nil {
		t.Fatal(err)
	}
	var retired []string
	for k, v := range fixture {
		if _, ok := current[k]; !ok {
			retired = append(retired, fmt.Sprintf("%s=%v", k, v))
		}
	}
	sort.Strings(retired)
	if len(retired) != 3 || !strings.HasSuffix(retired[0], "Monitor=false") || !strings.HasSuffix(retired[1], "Queue=heap") ||
		retired[2] != "VerifyMetrics=true" {
		t.Fatalf("fixture's retired keys = %v, want the monitor switch (false), the queue knob (heap) and the verify switch (true)", retired)
	}
	loaded, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(SchemeShogun)
	want.NumPEs = 4
	want.EnableSplitting, want.EnableMerging = true, true
	if !reflect.DeepEqual(loaded, want) {
		t.Fatalf("loaded config differs from the default:\n got %+v\nwant %+v", loaded, want)
	}

	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	var blobs [2][]byte
	for i, cfg := range []Config{loaded, want} {
		a, err := New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatal(err)
		}
		if blobs[i], err = json.Marshal(res); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("old config ran differently:\nold:     %s\ndefault: %s", blobs[0], blobs[1])
	}
}
