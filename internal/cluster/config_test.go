package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/gen"
	"shogun/internal/mem"
	"shogun/internal/pattern"
)

// wrappedFixture returns the retired-knob fixture, `shogun -dumpconfig
// -queue heap -pes 4 -split -merge` output from before the engine had a
// single queue, when the file held one chip: as written, and nested
// under "Chip", the form a machine file takes.
func wrappedFixture(t testing.TB) (chip, machine []byte) {
	t.Helper()
	chip, err := os.ReadFile(filepath.Join("testdata", "config_eventqueue_heap.json"))
	if err != nil {
		t.Fatal(err)
	}
	return chip, []byte(`{"Chip":` + string(chip) + `}`)
}

func TestConfigRoundTrip(t *testing.T) {
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 3)
	cfg.Partition = cluster.ModeHash
	cfg.PartitionSeed = 42
	cfg.Steal = false
	cfg.Interconnect = mem.NoCConfig{Links: 5, HopLat: 17, FlitCycles: 3}
	cfg.Chip.NumPEs = 7
	cfg.Chip.SetWidth(4)
	cfg.Chip.EnableMerging = true
	cfg.Chip.Tree.BunchesPerDepth = 2
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.ParseConfig(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cfg) {
		t.Fatalf("round trip changed the config:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestLoadConfigLayersDefaults(t *testing.T) {
	cfg, err := cluster.ParseConfig([]byte(`{"Chip":{"Scheme":"fingers","NumPEs":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Chip.Scheme != accel.SchemeFingers || cfg.Chip.NumPEs != 3 {
		t.Fatalf("scheme %q, NumPEs %d", cfg.Chip.Scheme, cfg.Chip.NumPEs)
	}
	// Unspecified fields fall back to Table 3 defaults, on one chip.
	if cfg.Chip.PE.Width != 8 || cfg.Chip.PE.IUs != 24 || cfg.Chip.L2.SizeKB != 1024 {
		t.Fatalf("chip defaults not layered: %+v", cfg.Chip.PE)
	}
	want := cluster.DefaultConfig(accel.SchemeFingers, 1)
	if cfg.Chips != 1 || cfg.Partition != want.Partition || cfg.Interconnect != want.Interconnect || cfg.Steal != want.Steal {
		t.Fatalf("machine defaults not layered: %+v", cfg)
	}
	// The loaded config must actually run.
	g := gen.Clique(10)
	s, _ := pattern.Build(pattern.Triangle())
	cl, err := cluster.New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Embeddings != 120 {
		t.Fatalf("count = %d", res.Embeddings)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	chip, _ := wrappedFixture(t)
	for _, tc := range []struct {
		name, in, want string
	}{
		{"malformed JSON", "{nope", "invalid character"},
		{"chip-only file", string(chip), `no "Chip" object`},
		{"null chip", `{"Chips":2,"Chip":null}`, `no "Chip" object`},
		{"wrong type", `{"Chip":{"NumPEs":"four"}}`, "NumPEs"},
	} {
		if _, err := cluster.ParseConfig([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadConfigRetiredQueueKnob pins backward compatibility for retired
// knobs. The fixture carries four keys accel.Config no longer
// serializes: the event-queue knob set to "heap", the locality-monitor
// switch set to false (the monitor is now turned off only through
// PE.MonitorPeriod = 0), the metrics-verify switch set to true (the
// conservation pass now runs on every run) and the tracer hook, null
// (a run-time hook, no longer serialized). All four must be ignored,
// leaving exactly the flag-built config, and the run must match the
// default config's run.
func TestLoadConfigRetiredQueueKnob(t *testing.T) {
	raw, machine := wrappedFixture(t)
	var fixture, current map[string]any
	if err := json.Unmarshal(raw, &fixture); err != nil {
		t.Fatal(err)
	}
	cur, err := json.Marshal(accel.DefaultConfig(accel.SchemeShogun))
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
	if len(retired) != 4 || !strings.HasSuffix(retired[0], "Monitor=false") || !strings.HasSuffix(retired[1], "Queue=heap") ||
		retired[2] != "Tracer=<nil>" || retired[3] != "VerifyMetrics=true" {
		t.Fatalf("fixture's retired keys = %v, want the monitor switch (false), the queue knob (heap), the tracer (null) and the verify switch (true)", retired)
	}
	loaded, err := cluster.ParseConfig(machine)
	if err != nil {
		t.Fatal(err)
	}
	want := cluster.DefaultConfig(accel.SchemeShogun, 1)
	want.Chip.NumPEs = 4
	want.Chip.EnableSplitting, want.Chip.EnableMerging = true, true
	if !reflect.DeepEqual(loaded, want) {
		t.Fatalf("loaded config differs from the default:\n got %+v\nwant %+v", loaded, want)
	}

	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	var blobs [2][]byte
	for i, cfg := range []cluster.Config{loaded, want} {
		cl, err := cluster.New(g, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.RunContext(context.Background())
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

// FuzzParseConfig pins the loader on any input: it returns an error or
// a fixpoint (parse, marshal and parse again give an equal config), and
// never panics.
func FuzzParseConfig(f *testing.F) {
	_, machine := wrappedFixture(f)
	f.Add(machine)
	dump := cluster.DefaultConfig(accel.SchemeShogun, 3)
	dump.Partition = cluster.ModeHash
	dump.Chip.NumPEs = 2
	dump.Chip.EnableSplitting = true
	b, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(b, '\n'))
	f.Add([]byte(`{"Chip":{}}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg, err := cluster.ParseConfig(in)
		if err != nil {
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := cluster.ParseConfig(out)
		if err != nil {
			t.Fatalf("reparse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("not a fixpoint:\nfirst  %+v\nsecond %+v", cfg, again)
		}
	})
}
