package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval around a call into a layer. Times are
// nanoseconds since the recorder's epoch; Parent 0 marks a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span; close it with (*openSpan).end.
type openSpan struct {
	r *recorder
	s span
}

func (r *recorder) open(name string, parent *openSpan) *openSpan {
	if r == nil {
		return nil
	}
	o := &openSpan{r: r, s: span{Name: name, Start: int64(time.Since(r.epoch))}}
	if parent != nil {
		o.s.Parent = parent.s.ID
		o.s.Trace = parent.s.Trace
	}
	r.mu.Lock()
	o.s.ID = int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{}) // reserve the slot; end fills it
	r.mu.Unlock()
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.r.epoch))
	o.r.mu.Lock()
	o.r.spans[o.s.ID-1] = o.s
	o.r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name, trace string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// durations returns every closed span of the given name, in seconds.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// medianMS is the median duration of the named spans in milliseconds.
func (r *recorder) medianMS(name string) float64 { return median(r.durations(name)) * 1e3 }

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) []selfRow {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := map[string]*selfRow{}
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.TotalMS += float64(s.dur()) / 1e6
		row.SelfMS += float64(s.dur()-covered(s, kids[s.ID])) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Self     []selfRow          `json:"self_time"`
	CPU      []pkgShare         `json:"cpu_by_package"`
	Requests []requestTrace     `json:"requests,omitempty"`
	Metrics  map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

// write stores the trace as <dir>/<workload>-seed<seed>.json.
func (t *traceFile) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", t.Workload, t.Seed))
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
