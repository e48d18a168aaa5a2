package trace_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/trace"
)

func TestJSONLAndSummaryFromSimulation(t *testing.T) {
	g := gen.RMAT(128, 700, 0.6, 0.15, 0.15, 2)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jsonl := trace.NewJSONL(&buf)
	summary := trace.NewSummary()

	cfg := accel.DefaultConfig(accel.SchemeShogun)
	cfg.NumPEs = 2
	cfg.Tracer = trace.Multi{jsonl, summary}
	a, err := accel.New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if jsonl.Count() != res.Tasks {
		t.Fatalf("traced %d events, simulator ran %d tasks", jsonl.Count(), res.Tasks)
	}

	// Every line must be valid JSON with sane fields.
	sc := bufio.NewScanner(&buf)
	lines := int64(0)
	var totalLeaves int64
	for sc.Scan() {
		var ev trace.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad trace line: %v", err)
		}
		if ev.Done < ev.Start || ev.Depth < 0 || ev.Depth >= s.Depth() {
			t.Fatalf("implausible event %+v", ev)
		}
		totalLeaves += int64(ev.Leaves)
		lines++
	}
	if lines != res.Tasks {
		t.Fatalf("lines %d != tasks %d", lines, res.Tasks)
	}
	if totalLeaves != res.Embeddings {
		t.Fatalf("traced leaves %d != embeddings %d", totalLeaves, res.Embeddings)
	}

	// Summary: per-depth rows, total task count preserved, report sorted.
	rep := summary.Report()
	if len(rep) == 0 {
		t.Fatal("empty summary")
	}
	var tasks int64
	for i, r := range rep {
		tasks += r.Tasks
		if r.AvgLat <= 0 || r.P99 < r.P50 {
			t.Fatalf("bad row %+v", r)
		}
		if i > 0 && rep[i-1].Depth >= r.Depth {
			t.Fatal("report not sorted by depth")
		}
	}
	if tasks != res.Tasks {
		t.Fatalf("summary tasks %d != %d", tasks, res.Tasks)
	}
	if !strings.Contains(summary.String(), "p99") {
		t.Fatal("summary table malformed")
	}
}

// failAfter fails every write after the first n bytes have been accepted.
type failAfter struct {
	remaining int
	writes    int
}

type errWriterFull struct{}

func (errWriterFull) Error() string { return "disk full" }

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.remaining <= 0 {
		return 0, errWriterFull{}
	}
	w.remaining -= len(p)
	return len(p), nil
}

// TestJSONLWriteError asserts the first write failure is recorded, later
// events stop hitting the writer, and Count reflects only the events
// that made it out.
func TestJSONLWriteError(t *testing.T) {
	w := &failAfter{remaining: 1} // first event fits, second fails
	j := trace.NewJSONL(w)

	j.TaskDone(trace.Event{PE: 0, Start: 0, Done: 5})
	if err := j.Err(); err != nil {
		t.Fatalf("unexpected error after successful write: %v", err)
	}
	j.TaskDone(trace.Event{PE: 1, Start: 5, Done: 9})
	err := j.Err()
	if err == nil {
		t.Fatal("write error not recorded")
	}
	if !errors.Is(err, errWriterFull{}) {
		t.Fatalf("recorded error %v does not wrap the writer's", err)
	}
	if j.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (only the successful event)", j.Count())
	}

	// Encoding must stop: further events neither touch the writer nor
	// clobber the first error.
	writesBefore := w.writes
	j.TaskDone(trace.Event{PE: 2, Start: 9, Done: 12})
	if w.writes != writesBefore {
		t.Fatal("writer still invoked after sticky error")
	}
	if got := j.Err(); got != err {
		t.Fatalf("first error clobbered: %v -> %v", err, got)
	}
}

// TestSummaryWholeStreamPercentiles feeds a latency stream whose
// distribution shifts after 16k observations: short warm-up tasks first,
// then 3× as many long tasks. A first-N reservoir would report the
// warm-up percentile (P50 = 1); the log-bucketed histogram covers the
// whole stream, so both P50 and P99 must land in the dominant late phase.
func TestSummaryWholeStreamPercentiles(t *testing.T) {
	s := trace.NewSummary()
	emit := func(n int, lat int64) {
		for i := 0; i < n; i++ {
			s.TaskDone(trace.Event{Depth: 1, Start: 0, Done: lat})
		}
	}
	emit(1<<14, 1)   // exactly the old reservoir capacity
	emit(3<<14, 100) // 3/4 of the stream: P50 and P99 are here

	rep := s.Report()
	if len(rep) != 1 {
		t.Fatalf("want one depth row, got %d", len(rep))
	}
	r := rep[0]
	if r.Tasks != 4<<14 {
		t.Fatalf("tasks = %d, want %d", r.Tasks, 4<<14)
	}
	if r.P50 != 100 {
		t.Fatalf("P50 = %d, want 100 (first-N reservoir bias would report 1)", r.P50)
	}
	if r.P99 != 100 {
		t.Fatalf("P99 = %d, want 100", r.P99)
	}

	// A uniform ramp must report percentiles near their exact values
	// even for very long streams (the histogram's relative error is
	// bounded by its sub-bucket width, ~3%).
	s2 := trace.NewSummary()
	const n = 200_000
	for i := 0; i < n; i++ {
		s2.TaskDone(trace.Event{Depth: 0, Start: 0, Done: int64(i + 1)})
	}
	r2 := s2.Report()[0]
	if tol := int64(n / 50); r2.P50 < n/2-tol || r2.P50 > n/2+tol {
		t.Fatalf("P50 = %d, want ≈ %d", r2.P50, n/2)
	}
	if tol := int64(n / 50); r2.P99 < n*99/100-tol {
		t.Fatalf("P99 = %d, want ≈ %d", r2.P99, n*99/100)
	}
}

// TestSummaryGoldenReport pins Report() and String() output for a fixed
// small-latency stream: the histogram's singleton buckets (< 32) make
// percentiles exact, so the rows must match the historical sorted-slice
// convention value for value.
func TestSummaryGoldenReport(t *testing.T) {
	s := trace.NewSummary()
	// Depth 0: latencies 1..10; depth 1: twenty 4s and one 30.
	for i := int64(1); i <= 10; i++ {
		s.TaskDone(trace.Event{Depth: 0, Start: 100, Done: 100 + i})
	}
	for i := 0; i < 20; i++ {
		s.TaskDone(trace.Event{Depth: 1, Start: 0, Done: 4})
	}
	s.TaskDone(trace.Event{Depth: 1, Start: 0, Done: 30})

	want := []trace.DepthReport{
		// sorted[len/2] and sorted[len*99/100] of each stream.
		{Depth: 0, Tasks: 10, AvgLat: 5.5, P50: 6, P99: 10},
		{Depth: 1, Tasks: 21, AvgLat: (20*4.0 + 30) / 21, P50: 4, P99: 30},
	}
	got := s.Report()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	const golden = "depth         tasks    avg-lat      p50      p99\n" +
		"0                10        5.5        6       10\n" +
		"1                21        5.2        4       30\n"
	if s.String() != golden {
		t.Fatalf("String() drifted:\n got:\n%s want:\n%s", s.String(), golden)
	}
}

// errTracer is a failing sink with a sticky error, used behind Multi.
type errTracer struct{ err error }

func (e *errTracer) TaskDone(trace.Event) {}
func (e *errTracer) Err() error           { return e.err }

// TestMultiErr asserts a failing writer behind a Multi fan-out surfaces
// through Multi.Err instead of being silently dropped.
func TestMultiErr(t *testing.T) {
	w := &failAfter{remaining: 1}
	j := trace.NewJSONL(w)
	summary := trace.NewSummary()
	m := trace.Multi{summary, j}

	m.TaskDone(trace.Event{PE: 0, Start: 0, Done: 5})
	if err := m.Err(); err != nil {
		t.Fatalf("unexpected error before failure: %v", err)
	}
	m.TaskDone(trace.Event{PE: 1, Start: 5, Done: 9})
	if err := m.Err(); err == nil {
		t.Fatal("Multi.Err dropped the child's write error")
	} else if !errors.Is(err, errWriterFull{}) {
		t.Fatalf("Multi.Err = %v, want the child's disk-full error", err)
	}

	// Both sinks still saw both events (fan-out is unaffected).
	if got := summary.Report()[0].Tasks; got != 2 {
		t.Fatalf("summary saw %d events, want 2", got)
	}

	// Ordering: the first erroring child wins, and nested Multis are
	// traversed.
	inner := trace.Multi{&errTracer{err: errWriterFull{}}}
	outer := trace.Multi{trace.NewSummary(), inner, &errTracer{err: errors.New("later")}}
	if err := outer.Err(); !errors.Is(err, errWriterFull{}) {
		t.Fatalf("nested Multi error = %v, want first child's", err)
	}
}
