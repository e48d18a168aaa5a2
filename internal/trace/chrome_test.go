package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

// TestChromeTraceSchema runs a small simulation through the Chrome
// emitter and validates the output against the trace-event JSON schema
// chrome://tracing and Perfetto expect: a traceEvents array whose
// entries carry ph/ts/pid/tid, "X" events with non-negative durations,
// one thread_name metadata record per PE, and "C" counter samples.
func TestChromeTraceSchema(t *testing.T) {
	g := gen.RMAT(128, 700, 0.6, 0.15, 0.15, 2)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	chrome := trace.NewChrome()
	cfg := accel.DefaultConfig(accel.SchemeShogun)
	cfg.NumPEs = 2
	cfg.Tracer = chrome
	a, err := accel.New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if chrome.Count() != res.Tasks {
		t.Fatalf("collected %d events, simulator ran %d tasks", chrome.Count(), res.Tasks)
	}

	var buf bytes.Buffer
	if _, err := chrome.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	var spans int64
	threadNames := map[int]bool{}
	counters := 0
	for _, ev := range file.TraceEvents {
		if ev.Ts == nil || ev.Pid == nil || ev.Tid == nil || ev.Ph == "" {
			t.Fatalf("event missing required field: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 || *ev.Ts < 0 {
				t.Fatalf("bad span timing: %+v", ev)
			}
			if ev.Args["depth"] == nil {
				t.Fatalf("span without depth arg: %+v", ev)
			}
		case "M":
			if ev.Name != "thread_name" {
				t.Fatalf("unexpected metadata: %+v", ev)
			}
			threadNames[*ev.Tid] = true
		case "C":
			counters++
			if _, ok := ev.Args["running"]; !ok {
				t.Fatalf("counter without running arg: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != res.Tasks {
		t.Fatalf("%d spans, want %d (one per task)", spans, res.Tasks)
	}
	if len(threadNames) != cfg.NumPEs {
		t.Fatalf("thread_name metadata for %d PEs, want %d", len(threadNames), cfg.NumPEs)
	}
	if counters == 0 {
		t.Fatal("no occupancy counter samples")
	}
}

// TestChromeCounterTracks folds a telemetry sampler series into the
// trace and checks its system-level gauges come out as "C" events under
// the telemetry process (pid 1), aligned to the task spans' cycle
// timeline, while per-PE columns and a nil series add nothing.
func TestChromeCounterTracks(t *testing.T) {
	chrome := trace.NewChrome()
	chrome.TaskDone(trace.Event{PE: 0, Start: 0, Done: 100})
	chrome.AddTimeSeries(nil)
	chrome.AddTimeSeries(&telemetry.TimeSeries{
		Cycles: []int64{10, 20, 30},
		Series: []telemetry.Series{
			{Name: "pe0/resident", Vals: []int64{3, 3, 3}},
			{Name: "dram/queue", Vals: []int64{1, 4, 2}},
			// Mismatched lengths truncate to the shorter side.
			{Name: "noc/inflight", Vals: []int64{7}},
		},
	})

	var buf bytes.Buffer
	if _, err := chrome.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   int64          `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var dram, noc int
	procNamed := false
	for _, ev := range file.TraceEvents {
		switch {
		case ev.Ph == "M" && ev.Name == "process_name" && ev.Pid == 1:
			procNamed = true
		case ev.Ph == "C" && ev.Name == "dram/queue":
			if ev.Pid != 1 {
				t.Fatalf("counter track on pid %d, want 1: %+v", ev.Pid, ev)
			}
			if _, ok := ev.Args["value"]; !ok {
				t.Fatalf("counter sample without value arg: %+v", ev)
			}
			dram++
		case ev.Ph == "C" && ev.Name == "noc/inflight":
			noc++
		case ev.Ph == "C" && ev.Pid == 1:
			t.Fatalf("unexpected counter track %q", ev.Name)
		}
	}
	if !procNamed {
		t.Fatal("telemetry process not named")
	}
	if dram != 3 {
		t.Fatalf("dram/queue samples = %d, want 3", dram)
	}
	if noc != 1 {
		t.Fatalf("noc/inflight samples = %d, want 1 (truncated to shorter side)", noc)
	}
}
