package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/cluster"
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
	o, err := parseFlags(flag.NewFlagSet("shogun", flag.ContinueOnError), append([]string{"-pes", "4"}, args...))
	if err != nil {
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

// writeJSON writes v as JSON to name in dir and returns the file's path.
func writeJSON(t *testing.T, dir, name string, v any) string {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFlagValidation pins that each bad command line fails with its
// own error, not an earlier one. A machine that cluster.New would refuse,
// from flags or a file, is refused by the machine check before any graph
// is read, and -dumpconfig does not print it.
func TestRunFlagValidation(t *testing.T) {
	dir := t.TempDir()
	graphPath := writeTestGraph(t, dir)
	chipOnly := writeJSON(t, dir, "chip.json", accel.DefaultConfig(accel.SchemeShogun))
	noIUs := cluster.DefaultConfig(accel.SchemeShogun, 1)
	noIUs.Chip.PE.IUs = 0
	noIUsPath := writeJSON(t, dir, "noius.json", noIUs)
	malformed := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(malformed, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative sample-every", []string{"-sample-every", "-1"}, "SampleEvery must be at least 0, got -1"},
		{"timeseries without sampler", []string{"-timeseries-out", "x.json"}, "-timeseries-out needs -sample-every"},
		{"bad http addr", []string{"-http", "no-port-here"}, "no-port-here"},
		{"zero chips", []string{"-graph", graphPath, "-chips", "0"}, "Chips must be at least 1, got 0"},
		{"bad partition mode", []string{"-graph", graphPath, "-chips", "2", "-partition", "metis"}, `unknown partition mode "metis"`},
		{"dump of an unbuildable machine", []string{"-chips", "0", "-partition", "metis", "-dumpconfig"}, "Chips must be at least 1, got 0"},
		{"zero width", []string{"-dataset", "wi", "-width", "0", "-verify=false"}, "PE.Width must be at least 1, got 0"},
		{"config file without IUs", []string{"-graph", graphPath, "-config", noIUsPath}, "noius.json: cluster: Chip: accel: PE.IUs must be at least 1, got 0"},
		{"no input graph", nil, "need -dataset or -graph"},
		{"unknown dataset", []string{"-dataset", "nope"}, "nope"},
		{"missing graph file", []string{"-graph", "/nonexistent/g.txt"}, "/nonexistent/g.txt"},
		{"unknown pattern", []string{"-dataset", "wi", "-pattern", "octagon"}, "octagon"},
		{"chip-only config file", []string{"-graph", graphPath, "-config", chipOnly}, `no "Chip" object`},
		{"malformed config file", []string{"-graph", graphPath, "-config", malformed}, "bad.json: cluster: machine config"},
		{"missing config file", []string{"-graph", graphPath, "-config", filepath.Join(dir, "none.json")}, "none.json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := quietRun(t, parseArgs(t, tc.args...))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestRunDumpConfig pins that -dumpconfig needs no graph.
func TestRunDumpConfig(t *testing.T) {
	if err := quietRun(t, parseArgs(t, "-dumpconfig")); err != nil {
		t.Fatalf("dumpconfig: %v", err)
	}
}

// dumpConfigFile runs the CLI with the given arguments and -dumpconfig
// and returns the path of the machine file it prints.
func dumpConfigFile(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dump.json")
	dump, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = dump
	err = run(context.Background(), parseArgs(t, append(args, "-dumpconfig")...))
	os.Stdout = old
	dump.Close()
	if err != nil {
		t.Fatalf("dumpconfig: %v", err)
	}
	return path
}

// dumpConfig runs the CLI with the given arguments and -dumpconfig and
// loads the config it prints.
func dumpConfig(t *testing.T, args ...string) cluster.Config {
	t.Helper()
	raw, err := os.ReadFile(dumpConfigFile(t, args...))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := cluster.ParseConfig(raw)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// cyclesLine returns the report's "cycles:" line.
func cyclesLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cycles:") {
			return line
		}
	}
	t.Fatalf("report has no cycles: line:\n%s", out)
	return ""
}

// TestDumpConfigReplaysRun pins the machine file's round trip: the file
// -dumpconfig writes for a command line, loaded by -config with no
// machine flags, builds the same cluster.Config and runs the same
// cycles, on one chip, on three hash-partitioned chips with splitting,
// and under another scheme.
func TestDumpConfigReplaysRun(t *testing.T) {
	graphPath := writeTestGraph(t, t.TempDir())
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"1 chip", nil},
		{"3 chips hash split", []string{"-pes", "2", "-chips", "3", "-partition", "hash", "-split"}},
		{"fingers", []string{"-scheme", "fingers", "-width", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flagArgs := append([]string{"-graph", graphPath}, tc.args...)
			flags := parseArgs(t, flagArgs...)
			fromFlags, err := flags.machineConfig()
			if err != nil {
				t.Fatal(err)
			}
			// Not parseArgs: its -pes 4 is a machine flag.
			file, err := parseFlags(flag.NewFlagSet("shogun", flag.ContinueOnError),
				[]string{"-graph", graphPath, "-config", dumpConfigFile(t, flagArgs...)})
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := file.machineConfig()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fromFile, fromFlags) {
				t.Fatalf("-config of the dump built\n%+v\nwant the flag-built\n%+v", fromFile, fromFlags)
			}
			want := cyclesLine(t, captureRun(t, flags))
			if got := cyclesLine(t, captureRun(t, *file)); got != want {
				t.Errorf("-config of the dump ran %q, the flags %q", got, want)
			}
		})
	}
}

// TestSchemeFlagOverridesConfigFile pins that -scheme, when given,
// replaces a -config file's scheme, and that the file's scheme stands
// otherwise, as -dumpconfig prints them.
func TestSchemeFlagOverridesConfigFile(t *testing.T) {
	cfgPath := writeJSON(t, t.TempDir(), "dfs.json", cluster.DefaultConfig(accel.SchemeDFS, 1))
	if c := dumpConfig(t, "-config", cfgPath); c.Chip.Scheme != accel.SchemeDFS {
		t.Errorf("no -scheme: scheme %q, want the file's %q", c.Chip.Scheme, accel.SchemeDFS)
	}
	if c := dumpConfig(t, "-config", cfgPath, "-scheme", "bfs"); c.Chip.Scheme != accel.SchemeBFS {
		t.Errorf("-scheme bfs: scheme %q, want %q", c.Chip.Scheme, accel.SchemeBFS)
	}
}

// TestConfigFileKeepsEdits pins that the machine flags' defaults leave
// a -config file alone: a -dumpconfig file edited to 3 PEs, splitting
// on, a 64 KB L1, 2 range-partitioned chips, partition seed 7 and
// stealing off loads back as edited, and a flag the command line gives
// still overrides the file.
func TestConfigFileKeepsEdits(t *testing.T) {
	cfg := dumpConfig(t)
	cfg.Chip.NumPEs, cfg.Chip.EnableSplitting, cfg.Chip.PE.L1.SizeKB = 3, true, 64
	cfg.Chips, cfg.Partition, cfg.PartitionSeed, cfg.Steal = 2, cluster.ModeRange, 7, false
	cfgPath := writeJSON(t, t.TempDir(), "edited.json", cfg)

	load := func(args ...string) cluster.Config {
		t.Helper()
		o, err := parseFlags(flag.NewFlagSet("shogun", flag.ContinueOnError), append([]string{"-config", cfgPath}, args...))
		if err != nil {
			t.Fatal(err)
		}
		m, err := o.machineConfig()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := load(); !reflect.DeepEqual(m, cfg) {
		t.Errorf("loaded\n%+v\nwant the file's\n%+v", m, cfg)
	}
	m := load("-pes", "5", "-split=false", "-width", "4", "-chips", "3", "-partition", "hash")
	if c := m.Chip; c.NumPEs != 5 || c.EnableSplitting || c.PE.L1.SizeKB != 64 || c.PE.Width != 4 || c.TokensPerDepth != 4 || c.Tree.EntriesPerBunch != 4 {
		t.Errorf("flags over the file: pes=%d split=%t l1=%d width=%d tokens=%d entries=%d, want 5, false, the file's 64, 4, 4, 4",
			c.NumPEs, c.EnableSplitting, c.PE.L1.SizeKB, c.PE.Width, c.TokensPerDepth, c.Tree.EntriesPerBunch)
	}
	if m.Chips != 3 || m.Partition != cluster.ModeHash || m.PartitionSeed != 7 || m.Steal {
		t.Errorf("flags over the file: chips=%d partition=%s seed=%d steal=%t, want 3, hash, the file's 7, false",
			m.Chips, m.Partition, m.PartitionSeed, m.Steal)
	}
}

// TestRunSingleChip drives the full single-accelerator CLI path: config
// file load, both trace writers, live inspection server, telemetry
// export in both formats, the metrics report, verbose statistics, and
// the software-miner verification.
func TestRunSingleChip(t *testing.T) {
	dir := t.TempDir()
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 1)
	cfg.Chip.TokensPerDepth, cfg.Chip.L2.SizeKB = 8, 256
	cfgPath := writeJSON(t, dir, "cfg.json", cfg)

	o := parseArgs(t, "-graph", writeTestGraph(t, dir), "-config", cfgPath,
		"-split", "-merge", "-v", "-metrics",
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
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 1)
	cfg.PartitionSeed = 42
	o := parseArgs(t, "-graph", writeTestGraph(t, dir), "-config", writeJSON(t, dir, "seed.json", cfg),
		"-pes", "2", "-split", "-metrics", "-v", "-chips", "3", "-partition", "hash",
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

// TestDebugVarsReportMachine pins that /debug/vars publishes the
// machine that ran: a -config file's scheme and chip count, not the
// flags' defaults.
func TestDebugVarsReportMachine(t *testing.T) {
	dir := t.TempDir()
	cfg := cluster.DefaultConfig(accel.SchemeDFS, 2)
	cfg.Chip.NumPEs = 2
	o, err := parseFlags(flag.NewFlagSet("shogun", flag.ContinueOnError),
		[]string{"-graph", writeTestGraph(t, dir), "-config", writeJSON(t, dir, "dfs.json", cfg), "-http", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := quietRun(t, *o); err != nil {
		t.Fatal(err)
	}
	vars, ok := expvar.Get("shogun").(*expvar.Map)
	if !ok {
		t.Fatal("no shogun expvar map")
	}
	var info struct {
		Scheme     string
		Chips, PEs int
	}
	if err := json.Unmarshal([]byte(vars.Get("run").String()), &info); err != nil {
		t.Fatal(err)
	}
	if info.Scheme != "dfs" || info.Chips != 2 || info.PEs != 2 {
		t.Errorf("/debug/vars run = %+v, want scheme dfs, 2 chips of 2 PEs", info)
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
