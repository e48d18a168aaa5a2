package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Chrome collects task events and renders them in the Chrome trace-event
// JSON format, loadable in chrome://tracing and Perfetto. Each PE maps to
// a thread (tid): tasks become "X" complete events spanning
// [Start, Done) in simulated cycles (1 cycle = 1 µs of trace time), and
// a per-PE "C" counter series tracks the number of resident tasks so
// slot occupancy is visible as a stacked area chart.
type Chrome struct {
	mu       sync.Mutex
	events   []Event
	counters []counterSeries
}

// counterSeries is one externally supplied counter track (telemetry
// sampler gauges), rendered under a separate "telemetry" process row.
type counterSeries struct {
	name   string
	cycles []int64
	vals   []int64
}

// NewChrome builds an empty collector.
func NewChrome() *Chrome { return &Chrome{} }

// TaskDone implements Tracer.
func (c *Chrome) TaskDone(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// AddCounterSeries folds one sampled gauge into the trace file as a "C"
// counter track under the "telemetry" process (pid 1), aligned to the
// task spans' cycle timeline. cycles and vals must be parallel; the
// shorter length wins.
func (c *Chrome) AddCounterSeries(name string, cycles, vals []int64) {
	n := len(cycles)
	if len(vals) < n {
		n = len(vals)
	}
	c.mu.Lock()
	c.counters = append(c.counters, counterSeries{
		name:   name,
		cycles: append([]int64(nil), cycles[:n]...),
		vals:   append([]int64(nil), vals[:n]...),
	})
	c.mu.Unlock()
}

// ChromeEvent is one entry of a Chrome trace file's traceEvents array.
// It is the one trace-event type in the module: simulated runs (Chrome)
// and served requests (obs) both render through it.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeFile is a complete Chrome trace file.
type ChromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteTo emits the collected events as a complete trace file.
func (c *Chrome) WriteTo(w io.Writer) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	pes := map[int]bool{}
	for _, ev := range c.events {
		pes[ev.PE] = true
	}
	var out []ChromeEvent
	for pe := range pes {
		out = append(out, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: pe,
			Args: map[string]any{"name": fmt.Sprintf("PE %d", pe)},
		})
	}

	// Task spans.
	for _, ev := range c.events {
		out = append(out, ChromeEvent{
			Name: fmt.Sprintf("d%d v%d", ev.Depth, ev.Vertex),
			Cat:  "task", Ph: "X",
			Ts: ev.Start, Dur: ev.Done - ev.Start,
			Pid: 0, Tid: ev.PE,
			Args: map[string]any{
				"tree": ev.TreeID, "depth": ev.Depth,
				"vertex": ev.Vertex, "leaves": ev.Leaves,
			},
		})
	}

	// Per-PE resident-task counter: +1 at each start, -1 at each done,
	// one "C" sample per boundary.
	type edge struct {
		t     int64
		delta int
	}
	perPE := map[int][]edge{}
	for _, ev := range c.events {
		perPE[ev.PE] = append(perPE[ev.PE], edge{ev.Start, +1}, edge{ev.Done, -1})
	}
	for pe, edges := range perPE {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].t != edges[j].t {
				return edges[i].t < edges[j].t
			}
			return edges[i].delta < edges[j].delta // close before open
		})
		level := 0
		for i, e := range edges {
			level += e.delta
			if i+1 < len(edges) && edges[i+1].t == e.t {
				continue // emit one sample per timestamp
			}
			out = append(out, ChromeEvent{
				Name: fmt.Sprintf("PE %d tasks", pe), Ph: "C",
				Ts: e.t, Pid: 0, Tid: pe,
				Args: map[string]any{"running": level},
			})
		}
	}

	// Telemetry counter tracks live under their own process row so they
	// stack separately from the per-PE task threads.
	if len(c.counters) > 0 {
		out = append(out, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "telemetry"},
		})
	}
	for _, cs := range c.counters {
		for i := range cs.cycles {
			out = append(out, ChromeEvent{
				Name: cs.name, Ph: "C", Ts: cs.cycles[i], Pid: 1,
				Args: map[string]any{"value": cs.vals[i]},
			})
		}
	}

	// Deterministic output order: metadata first, then by (ts, tid, ph).
	sort.SliceStable(out, func(i, j int) bool {
		mi, mj := out[i].Ph == "M", out[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		return out[i].Tid < out[j].Tid
	})

	b, err := json.Marshal(ChromeFile{TraceEvents: out, DisplayTimeUnit: "ms"})
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}

// Count reports collected events.
func (c *Chrome) Count() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(len(c.events))
}
