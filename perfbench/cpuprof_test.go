package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestPkgOf(t *testing.T) {
	cases := map[string]string{
		"shogun/internal/sim.(*Pool).AcquireBatch":                  "shogun/internal/sim",
		"shogun/internal/setops.Intersect":                          "shogun/internal/setops",
		"net/http.(*conn).serve":                                    "net/http",
		"encoding/json.(*decodeState).object":                       "encoding/json",
		"runtime.mallocgc":                                          "runtime",
		"shogun/internal/serve.(*Cache[go.shape.struct {...}]).Get": "shogun/internal/serve",
		"shogun/internal/serve.New.func1":                           "shogun/internal/serve",
		"sort.Slice[...]":                                           "sort",
	}
	for fn, want := range cases {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

// TestFlatSharesPartitionSamples profiles a busy loop and checks that the
// flat column attributes every sample to exactly one package, so flat
// shares sum to 100%.
func TestFlatSharesPartitionSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := uint64(0); i < 1e5; i++ {
			sink += i * i
		}
		_ = make([]byte, 1<<12)
	}
	pprof.StopCPUProfile()
	tab, err := buildCPUTable(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Samples == 0 {
		t.Skip("no samples collected")
	}
	var flat int64
	var pct float64
	for _, r := range tab.Rows {
		flat += r.Flat
		pct += r.FlatPct
		if r.Cum < r.Flat {
			t.Errorf("%s: cum %d < flat %d", r.Pkg, r.Cum, r.Flat)
		}
	}
	if flat != tab.Samples {
		t.Errorf("flat samples sum to %d, want %d", flat, tab.Samples)
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Errorf("flat shares sum to %v%%, want 100%%", pct)
	}
	if tab.flatPct("shogun/perfbench") == 0 && tab.flatPct("main") == 0 {
		t.Errorf("busy loop not attributed to this package: %+v", tab.Rows)
	}
}

func TestBuildCPUTableRejectsGarbage(t *testing.T) {
	if _, err := buildCPUTable([]byte("not a profile")); err == nil {
		t.Fatal("want an error for a non-gzip profile")
	}
}
