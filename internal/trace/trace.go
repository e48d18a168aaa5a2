// Package trace records per-task execution events from the simulator for
// offline analysis: task latency breakdowns, per-depth histograms, and
// JSONL dumps consumable by external tooling.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"shogun/internal/telemetry"
)

// Event describes one completed task.
type Event struct {
	PE     int   `json:"pe"`
	TreeID int   `json:"tree"`
	Depth  int   `json:"depth"`
	Vertex int32 `json:"vertex"`
	Start  int64 `json:"start"`
	Done   int64 `json:"done"`
	// Leaves counted at completion (leaf-parent tasks).
	Leaves int `json:"leaves,omitempty"`
}

// Tracer consumes task events. Implementations must be cheap: the
// simulator calls TaskDone once per task.
type Tracer interface {
	TaskDone(Event)
}

// JSONL streams events as JSON lines. The first write error is sticky:
// encoding stops (later events are dropped rather than interleaved into
// a torn stream) and Err reports it so callers can fail loudly instead
// of shipping a silently truncated trace.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int64
	err error
}

// NewJSONL wraps w.
func NewJSONL(w io.Writer) *JSONL { return &JSONL{enc: json.NewEncoder(w)} }

// TaskDone implements Tracer.
func (j *JSONL) TaskDone(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if err := j.enc.Encode(ev); err != nil {
		j.err = fmt.Errorf("trace: event %d: %w", j.n, err)
		return
	}
	j.n++
}

// Count reports successfully emitted events.
func (j *JSONL) Count() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the first write error, if any. Check it after the run:
// a non-nil error means the trace is truncated at Count() events.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Summary aggregates latency statistics per depth. Each depth feeds a
// log-bucketed telemetry histogram, so percentiles cover EVERY
// observation (the former stride-decimation sampler kept an evenly
// spaced subset) at a fixed memory bound per depth, and the per-depth
// digests merge bit-identically across shards.
type Summary struct {
	mu     sync.Mutex
	depths map[int]*telemetry.Histogram
}

// NewSummary builds an empty aggregator.
func NewSummary() *Summary { return &Summary{depths: map[int]*telemetry.Histogram{}} }

// TaskDone implements Tracer.
func (s *Summary) TaskDone(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.depths[ev.Depth]
	if h == nil {
		h = telemetry.NewHistogram()
		s.depths[ev.Depth] = h
	}
	h.Observe(ev.Done - ev.Start)
}

// DepthReport is one row of a Summary.
type DepthReport struct {
	Depth  int
	Tasks  int64
	AvgLat float64
	P50    int64
	P99    int64
}

// Report returns per-depth statistics sorted by depth.
func (s *Summary) Report() []DepthReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []DepthReport
	for depth, h := range s.depths {
		out = append(out, DepthReport{
			Depth:  depth,
			Tasks:  h.Count(),
			AvgLat: h.Avg(),
			P50:    h.Quantile(0.5),
			P99:    h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Depth < out[j].Depth })
	return out
}

// String renders the report as an aligned table.
func (s *Summary) String() string {
	out := fmt.Sprintf("%-6s %12s %10s %8s %8s\n", "depth", "tasks", "avg-lat", "p50", "p99")
	for _, r := range s.Report() {
		out += fmt.Sprintf("%-6d %12d %10.1f %8d %8d\n", r.Depth, r.Tasks, r.AvgLat, r.P50, r.P99)
	}
	return out
}

// Multi fans events out to several tracers.
type Multi []Tracer

// TaskDone implements Tracer.
func (m Multi) TaskDone(ev Event) {
	for _, t := range m {
		t.TaskDone(ev)
	}
}

// Err aggregates child errors: it returns the first non-nil error among
// children exposing an Err() method (JSONL, nested Multi, ...), so a
// failing sink behind a fan-out surfaces instead of silently truncating
// its stream.
func (m Multi) Err() error {
	for _, t := range m {
		if c, ok := t.(interface{ Err() error }); ok {
			if err := c.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}
