package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shogun/internal/accel"
)

// writeTestGraph emits a small deterministic edge list to dir and
// returns its path.
func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	const n = 96
	rng := rand.New(rand.NewSource(7))
	var b strings.Builder
	fmt.Fprintf(&b, "# vertices=%d\n", n)
	for i := 0; i < 6*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		fmt.Fprintf(&b, "%d %d\n", u, v)
	}
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runArgs bundles run's long positional parameter list with defaults so
// each case only states what it changes.
type runArgs struct {
	dataset, graphArg, pat, scheme         string
	pes, width, l1KB, l2KB, tok, bunch     int
	split, merge, verify, verbose, metrics bool
	traceOut, chromeOut, cfgPath           string
	dumpCfg                                bool
	deadline, maxEvents                    int64
	maxWall                                time.Duration
	tf                                     telemetryFlags
	cf                                     clusterFlags
}

func defaultArgs() runArgs {
	return runArgs{
		pat: "tc", scheme: "shogun",
		pes: 4, width: 8, l1KB: 32, bunch: 4,
		verify: true,
		cf:     clusterFlags{chips: 1, steal: true},
	}
}

// quietRun invokes run with stdout parked on /dev/null so the CLI's
// report does not drown the test log.
func quietRun(t *testing.T, a runArgs) error {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	old := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = old }()
	return run(context.Background(), a.dataset, a.graphArg, a.pat, a.scheme,
		a.pes, a.width, a.l1KB, a.l2KB, a.tok, a.bunch,
		a.split, a.merge, a.verify, a.verbose, a.metrics,
		a.traceOut, a.chromeOut, a.cfgPath, a.dumpCfg,
		a.deadline, a.maxEvents, a.maxWall, a.tf, a.cf)
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*runArgs)
	}{
		{"negative sample-every", func(a *runArgs) { a.tf.sampleEvery = -1 }},
		{"timeseries without sampler", func(a *runArgs) { a.tf.timeseriesOut = "x.json" }},
		{"bad http addr", func(a *runArgs) { a.tf.httpAddr = "no-port-here" }},
		{"zero chips", func(a *runArgs) { a.cf.chips = 0 }},
		{"bad partition mode", func(a *runArgs) { a.cf.chips = 2; a.cf.partition = "metis" }},
		{"no input graph", func(a *runArgs) {}},
		{"unknown dataset", func(a *runArgs) { a.dataset = "nope" }},
		{"missing graph file", func(a *runArgs) { a.graphArg = "/nonexistent/g.txt" }},
		{"unknown pattern", func(a *runArgs) { a.dataset = "wi"; a.pat = "octagon" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := defaultArgs()
			tc.mut(&a)
			if err := quietRun(t, a); err == nil {
				t.Errorf("%s: run accepted bad flags", tc.name)
			}
		})
	}
}

func TestRunDumpConfig(t *testing.T) {
	a := defaultArgs()
	a.graphArg = writeTestGraph(t, t.TempDir())
	a.dumpCfg = true
	if err := quietRun(t, a); err != nil {
		t.Fatalf("dumpconfig: %v", err)
	}
}

// TestRunSingleChip drives the full single-accelerator CLI path: config
// file load, both trace writers, live inspection server, telemetry
// export in both formats, the metrics report, verbose statistics, and
// the software-miner verification.
func TestRunSingleChip(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "cfg.json")
	raw, err := json.Marshal(accel.DefaultConfig(accel.SchemeShogun))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	a := defaultArgs()
	a.graphArg = writeTestGraph(t, dir)
	a.cfgPath = cfgPath
	a.split, a.merge = true, true
	a.tok, a.l2KB = 8, 256
	a.verbose, a.metrics = true, true
	a.traceOut = filepath.Join(dir, "trace.jsonl")
	a.chromeOut = filepath.Join(dir, "chrome.json")
	a.deadline, a.maxEvents, a.maxWall = 1<<40, 1<<40, time.Minute
	a.tf = telemetryFlags{sampleEvery: 256, timeseriesOut: filepath.Join(dir, "ts.json"), httpAddr: "127.0.0.1:0"}
	if err := quietRun(t, a); err != nil {
		t.Fatalf("single-chip run: %v", err)
	}
	for _, f := range []string{"trace.jsonl", "chrome.json", "ts.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty (err=%v)", f, err)
		}
	}

	// CSV telemetry export goes through the other writeTimeSeries branch.
	a.tf.timeseriesOut = filepath.Join(dir, "ts.csv")
	a.cfgPath, a.traceOut, a.chromeOut = "", "", ""
	a.verbose, a.metrics = false, false
	a.tf.httpAddr = ""
	if err := quietRun(t, a); err != nil {
		t.Fatalf("csv telemetry run: %v", err)
	}
}

// TestRunCluster drives the multi-chip CLI path end to end: partition
// summary, per-chip report, cluster metrics verification, telemetry
// export, and the software-miner cross-check.
func TestRunCluster(t *testing.T) {
	dir := t.TempDir()
	a := defaultArgs()
	a.graphArg = writeTestGraph(t, dir)
	a.split = true
	a.metrics = true
	a.cf = clusterFlags{chips: 3, partition: "hash", seed: 42, steal: true}
	a.tf = telemetryFlags{sampleEvery: 256, timeseriesOut: filepath.Join(dir, "cts.csv")}
	if err := quietRun(t, a); err != nil {
		t.Fatalf("cluster run: %v", err)
	}
	if st, err := os.Stat(filepath.Join(dir, "cts.csv")); err != nil || st.Size() == 0 {
		t.Errorf("cluster telemetry missing or empty (err=%v)", err)
	}
}

func TestWriteTimeSeriesNil(t *testing.T) {
	if err := writeTimeSeries(filepath.Join(t.TempDir(), "ts.json"), nil); err == nil {
		t.Error("writeTimeSeries accepted a nil series")
	}
}

func TestBdPctZeroTotal(t *testing.T) {
	if got := bdPct(5, accel.CycleBreakdown{}); got != 0 {
		t.Errorf("bdPct on zero total = %v", got)
	}
}
