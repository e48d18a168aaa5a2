package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric and
// workload lists the program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestSmoke runs every workload at its minimal length, untraced and
// traced, and checks that each operation was correct and every metric of
// the mode was reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, trace := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		args := []string{"--workload", "all", "--seed", "7", "--seconds", "0", "--trace", trace, "--out", t.TempDir()}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, errb.String())
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		lines := 0
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if !strings.HasPrefix(sc.Text(), "{") {
				continue
			}
			lines++
			var res resultLine
			if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
				t.Fatalf("trace %s: bad result line %q: %v", trace, sc.Text(), err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s: result %+v\n%s", trace, res, out.String())
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("trace %s: metric %s missing or wrong unit: %+v", trace, d.name, m)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("trace %s: %d metrics, want %d", trace, len(res.Metrics), len(defs))
			}
		}
		if lines != len(workloads) {
			t.Errorf("trace %s: %d result lines, want %d", trace, lines, len(workloads))
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-as-4cl", "--trace", "2"},
		{"--workload", "sim-as-4cl", "--seconds", "-1"},
		{"--workload", "sim-as-4cl", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}
