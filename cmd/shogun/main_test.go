package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// parseArgs parses a command line the way main does, at test scale (4
// PEs unless the arguments say otherwise).
func parseArgs(t *testing.T, args ...string) options {
	t.Helper()
	fs := flag.NewFlagSet("shogun", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse(append([]string{"-pes", "4"}, args...)); err != nil {
		t.Fatal(err)
	}
	return *o
}

// quietRun invokes run with stdout parked on /dev/null so the CLI's
// report does not drown the test log.
func quietRun(t *testing.T, o options) error {
	t.Helper()
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	old := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = old }()
	return run(context.Background(), o)
}

func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"negative sample-every", []string{"-sample-every", "-1"}},
		{"timeseries without sampler", []string{"-timeseries-out", "x.json"}},
		{"bad http addr", []string{"-http", "no-port-here"}},
		{"zero chips", []string{"-chips", "0"}},
		{"bad partition mode", []string{"-chips", "2", "-partition", "metis"}},
		{"no input graph", nil},
		{"unknown dataset", []string{"-dataset", "nope"}},
		{"missing graph file", []string{"-graph", "/nonexistent/g.txt"}},
		{"unknown pattern", []string{"-dataset", "wi", "-pattern", "octagon"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := quietRun(t, parseArgs(t, tc.args...)); err == nil {
				t.Errorf("%s: run accepted bad flags", tc.name)
			}
		})
	}
}

func TestRunDumpConfig(t *testing.T) {
	o := parseArgs(t, "-graph", writeTestGraph(t, t.TempDir()), "-dumpconfig")
	if err := quietRun(t, o); err != nil {
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

	o := parseArgs(t, "-graph", writeTestGraph(t, dir), "-config", cfgPath,
		"-split", "-merge", "-tokens", "8", "-l2", "256", "-v", "-metrics",
		"-trace", filepath.Join(dir, "trace.jsonl"), "-trace-out", filepath.Join(dir, "chrome.json"),
		"-deadline", "1099511627776", "-maxevents", "1099511627776", "-maxwall", "1m",
		"-sample-every", "256", "-timeseries-out", filepath.Join(dir, "ts.json"), "-http", "127.0.0.1:0")
	if err := quietRun(t, o); err != nil {
		t.Fatalf("single-chip run: %v", err)
	}
	for _, f := range []string{"trace.jsonl", "chrome.json", "ts.json"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty (err=%v)", f, err)
		}
	}

	// CSV telemetry export goes through the other writeTimeSeries branch.
	o.timeseriesOut = filepath.Join(dir, "ts.csv")
	o.cfgPath, o.traceOut, o.chromeOut = "", "", ""
	o.verbose, o.metrics = false, false
	o.httpAddr = ""
	if err := quietRun(t, o); err != nil {
		t.Fatalf("csv telemetry run: %v", err)
	}
}

// TestRunCluster drives the CLI at 3 chips end to end: partition
// summary, per-chip report, cluster metrics verification, both trace
// writers with machine-wide PE ids, the -v per-PE lines for every
// chip, live inspection, telemetry export, and the software-miner
// cross-check.
func TestRunCluster(t *testing.T) {
	dir := t.TempDir()
	o := parseArgs(t, "-graph", writeTestGraph(t, dir), "-pes", "2", "-split", "-metrics", "-v",
		"-chips", "3", "-partition", "hash", "-partition-seed", "42",
		"-trace", filepath.Join(dir, "c3.jsonl"), "-trace-out", filepath.Join(dir, "c3.json"),
		"-sample-every", "256", "-timeseries-out", filepath.Join(dir, "cts.csv"), "-http", "127.0.0.1:0")
	out := captureRun(t, o)
	for _, f := range []string{"c3.jsonl", "c3.json", "cts.csv"} {
		if st, err := os.Stat(filepath.Join(dir, f)); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty (err=%v)", f, err)
		}
	}
	// Every chip's PEs print a -v line and own Chrome trace tracks.
	raw, err := os.ReadFile(filepath.Join(dir, "c3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Tid int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatal(err)
	}
	tids := map[int]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Tid] = true
		}
	}
	for id := 0; id < o.chips*o.pes; id++ {
		if !strings.Contains(out, fmt.Sprintf("\n  pe%d: tasks=", id)) {
			t.Errorf("-v printed no line for pe%d", id)
		}
		if !tids[id] {
			t.Errorf("chrome trace has no task track for machine-wide pe%d", id)
		}
	}
	for _, want := range []string{"chips=3", "chip2:", "verify: OK", "conservation invariants hold"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q", want)
		}
	}
}

// TestRunPrintsDigests: an unsampled run prints every simulation
// digest's count, p50, p99 and max.
func TestRunPrintsDigests(t *testing.T) {
	o := parseArgs(t, "-graph", writeTestGraph(t, t.TempDir()), "-pes", "2", "-split")
	out := captureRun(t, o)
	for _, name := range []string{"l1-latency", "l2-latency", "queue-wait", "split-lines", "task-lifetime"} {
		if !strings.Contains(out, "\n  "+name+" ") {
			t.Errorf("report prints no %s digest:\n%s", name, out)
		}
	}
	if strings.Contains(out, "task-lifetime n=0 ") {
		t.Errorf("task-lifetime digest is empty:\n%s", out)
	}
}

// captureRun invokes run and returns what it printed.
func captureRun(t *testing.T, o options) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	old := os.Stdout
	os.Stdout = f
	err = run(context.Background(), o)
	os.Stdout = old
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
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
