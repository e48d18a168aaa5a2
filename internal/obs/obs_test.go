package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanAttributionConservative pins the acceptance bound: for a
// completed request the recorded phase durations telescope, so they sum
// to the measured wall time exactly — stronger than the 1% tolerance the
// design asks for, and immune to scheduling jitter because both sides
// are derived from the same timestamp chain.
func TestSpanAttributionConservative(t *testing.T) {
	p := NewPlane(Options{})
	sp := p.Begin("count", "", time.Now())
	for _, ph := range []Phase{PhaseQueue, PhaseGraph, PhaseSchedule, PhaseRun, PhaseEncode} {
		time.Sleep(time.Millisecond)
		sp.To(ph)
	}
	time.Sleep(time.Millisecond)
	id := sp.id
	sp.End(http.StatusOK, "ok", "")

	v, ok := p.Lookup(id)
	if !ok {
		t.Fatal("completed span not in recent ring")
	}
	if !v.Done || v.Phase != "done" {
		t.Fatalf("view not done: %+v", v)
	}
	if sum := sumPhases(v.PhasesNS); sum != v.WallNS {
		t.Fatalf("phases sum %dns != wall %dns (drift %dns)", sum, v.WallNS, v.WallNS-sum)
	}
	// Every phase the span passed through picked up its sleep.
	ph := v.PhasesNS
	for name, d := range map[string]int64{
		"queue": ph.Queue, "graph": ph.Graph, "schedule": ph.Schedule,
		"run": ph.Run, "encode": ph.Encode,
	} {
		if d < int64(time.Millisecond)/2 {
			t.Errorf("phase %s got %dns, want >= ~1ms", name, d)
		}
	}
}

// TestSpanLiveView checks a mid-flight view: wall and phases cover
// elapsed-so-far, the current phase is charged up to now, and the sum
// still telescopes to the live wall time.
func TestSpanLiveView(t *testing.T) {
	p := NewPlane(Options{})
	sp := p.Begin("mine", "", time.Now())
	sp.To(PhaseRun)
	time.Sleep(2 * time.Millisecond)

	v := sp.View()
	if v.Done {
		t.Fatal("live span reported done")
	}
	if v.Phase != "run" {
		t.Fatalf("live phase %q, want run", v.Phase)
	}
	if v.PhasesNS.Run < int64(time.Millisecond) {
		t.Fatalf("live run phase %dns, want >= ~2ms", v.PhasesNS.Run)
	}
	if sum := sumPhases(v.PhasesNS); sum != v.WallNS {
		t.Fatalf("live phases sum %d != live wall %d", sum, v.WallNS)
	}
	sp.End(http.StatusOK, "ok", "")
}

func TestTraceIDs(t *testing.T) {
	p := NewPlane(Options{})

	sp := p.Begin("count", "caller-id.42", time.Now())
	if got := sp.TraceID(); got != "caller-id.42" {
		t.Fatalf("valid inbound trace rewritten: %q", got)
	}
	sp.End(200, "ok", "")

	for _, bad := range []string{"", "has space", "семь", strings.Repeat("x", 65), "semi;colon"} {
		sp := p.Begin("count", bad, time.Now())
		got := sp.TraceID()
		if len(got) != 16 || !validTrace(got) {
			t.Fatalf("generated trace for invalid input %q is %q, want 16 valid chars", bad, got)
		}
		sp.End(200, "ok", "")
	}

	// Generated IDs must differ request to request.
	a := p.Begin("count", "", time.Now())
	b := p.Begin("count", "", time.Now())
	if a.TraceID() == b.TraceID() {
		t.Fatalf("two generated traces collide: %q", a.TraceID())
	}
	a.End(200, "ok", "")
	b.End(200, "ok", "")
}

func TestPlaneRegistryAndRing(t *testing.T) {
	p := NewPlane(Options{Recent: 4})

	sp := p.Begin("count", "", time.Now())
	if p.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", p.InFlight())
	}
	live := p.Snapshot()
	if len(live) != 1 || live[0].ID != sp.id || live[0].Done {
		t.Fatalf("snapshot wrong: %+v", live)
	}
	if _, ok := p.Lookup(sp.id); !ok {
		t.Fatal("live span not found by Lookup")
	}
	sp.End(200, "ok", "")
	if p.InFlight() != 0 {
		t.Fatalf("InFlight after End = %d, want 0", p.InFlight())
	}

	// Overfill the ring; only the newest Recent survive, newest first.
	var ids []uint64
	for i := 0; i < 6; i++ {
		s := p.Begin("mine", "", time.Now())
		ids = append(ids, s.id)
		s.End(200, "ok", "")
	}
	rec := p.Recent()
	if len(rec) != 4 {
		t.Fatalf("ring holds %d, want 4", len(rec))
	}
	for i, v := range rec {
		want := ids[len(ids)-1-i]
		if v.ID != want {
			t.Fatalf("recent[%d].ID = %d, want %d (newest first)", i, v.ID, want)
		}
	}
	if _, ok := p.Lookup(ids[0]); ok {
		t.Fatal("evicted ring entry still found")
	}
	if _, ok := p.Lookup(ids[len(ids)-1]); !ok {
		t.Fatal("newest completed request not found")
	}
}

// TestProgressJoinLiveOnly pins the retention contract: the live-gauge
// probe rides only on in-flight views; once the request completes, the
// ring's view must not retain (or invoke) the workload closure.
func TestProgressJoinLiveOnly(t *testing.T) {
	p := NewPlane(Options{})
	sp := p.Begin("simulate", "", time.Now())
	calls := 0
	sp.SetProgress(func() map[string]int64 { calls++; return map[string]int64{"cycle": 42} })

	v := sp.View()
	v.FillProgress()
	if calls != 1 || v.Progress["cycle"] != 42 {
		t.Fatalf("live FillProgress: calls=%d progress=%v", calls, v.Progress)
	}

	id := sp.id
	sp.End(200, "ok", "")
	done, _ := p.Lookup(id)
	done.FillProgress()
	if calls != 1 || done.Progress != nil {
		t.Fatalf("completed view invoked the probe (calls=%d) or kept progress %v", calls, done.Progress)
	}
}

// TestInspectionDuringChurn is the regression test for the
// reset-vs-View race: Snapshot and Lookup used to copy *Span pointers
// under p.mu but View them after unlocking, racing with end()'s
// *s = Span{} reset and the pool's reuse of the span. Inspection now
// happens entirely under p.mu. Run under -race this hammers
// Begin/To/End churn against concurrent Snapshot/Lookup/Recent
// readers; any view that does surface must still telescope.
func TestInspectionDuringChurn(t *testing.T) {
	p := NewPlane(Options{Recent: 8})
	const writers, readers, iters = 4, 4, 300

	var readerWG, writerWG sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var lastID uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range p.Snapshot() {
					if v.Done {
						t.Error("snapshot returned a completed span as live")
						return
					}
					if sum := sumPhases(v.PhasesNS); sum != v.WallNS {
						t.Errorf("live view does not telescope: sum %d wall %d", sum, v.WallNS)
						return
					}
					lastID = v.ID
				}
				if lastID != 0 {
					p.Lookup(lastID) // live, completed, or evicted — must not race or hang
				}
				p.Recent()
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < iters; i++ {
				sp := p.Begin("count", "", time.Now())
				sp.To(PhaseQueue)
				sp.To(PhaseRun)
				sp.SetTarget("g", "s")
				sp.To(PhaseEncode)
				sp.End(200, "ok", "")
			}
		}()
	}
	// The writers finish on their own; the readers spin until stopped.
	writersDone := make(chan struct{})
	go func() { defer close(writersDone); writerWG.Wait() }()
	select {
	case <-writersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("writers did not finish — likely a deadlocked span mutex")
	}
	close(stop)
	readersDone := make(chan struct{})
	go func() { defer close(readersDone); readerWG.Wait() }()
	select {
	case <-readersDone:
	case <-time.After(30 * time.Second):
		t.Fatal("readers did not exit — likely a deadlocked span mutex")
	}
	if n := p.InFlight(); n != 0 {
		t.Fatalf("InFlight after churn = %d, want 0", n)
	}
	if got := int(p.Families()[0].Hist.Count()); got != writers*iters {
		t.Fatalf("completed %d requests, want %d", got, writers*iters)
	}
}

// TestFlushEveryIdle pins the FlushEvery contract for an idle daemon:
// after the last request of a burst, its access line reaches the
// underlying writer within ~FlushEvery with no further requests and no
// explicit Flush — the background flusher picks it up.
func TestFlushEveryIdle(t *testing.T) {
	var buf syncBuffer
	p := NewPlane(Options{AccessLog: &buf, FlushEvery: 10 * time.Millisecond})
	defer p.Close()

	sp := p.Begin("count", "", time.Now())
	sp.End(200, "ok", "")
	if buf.Len() != 0 {
		t.Skip("line flushed inline (slow test machine) — nothing to observe")
	}
	deadline := time.Now().Add(5 * time.Second)
	for buf.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("access line never auto-flushed on an idle plane")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("auto-flushed line malformed: %q", buf.String())
	}
}

// syncBuffer is a bytes.Buffer safe for the background flusher's
// concurrent writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestOutcomeForStatus(t *testing.T) {
	cases := map[int]string{
		200: "ok", 201: "ok",
		429: "shed",
		503: "unavail",
		408: "budget", 422: "budget",
		499: "client_gone",
		400: "client_error", 404: "client_error",
		500: "error", 0: "error",
	}
	for status, want := range cases {
		if got := OutcomeForStatus(status); got != want {
			t.Errorf("OutcomeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestFamilies(t *testing.T) {
	p := NewPlane(Options{})
	for i := 0; i < 3; i++ {
		s := p.Begin("count", "", time.Now())
		s.End(200, "ok", "")
	}
	s := p.Begin("count", "", time.Now())
	s.End(429, "shed", "queue full")
	s = p.Begin("mine", "", time.Now())
	s.End(200, "ok", "")

	fams := p.Families()
	if len(fams) != 3 {
		t.Fatalf("family count = %d, want 3: %+v", len(fams), fams)
	}
	// Deterministic order: (count,ok), (count,shed), (mine,ok).
	wantOrder := []struct {
		op, outcome string
		n           int64
	}{{"count", "ok", 3}, {"count", "shed", 1}, {"mine", "ok", 1}}
	for i, w := range wantOrder {
		f := fams[i]
		if f.Op != w.op || f.Outcome != w.outcome || f.Hist.Count() != w.n {
			t.Fatalf("family[%d] = %s/%s n=%d, want %s/%s n=%d",
				i, f.Op, f.Outcome, f.Hist.Count(), w.op, w.outcome, w.n)
		}
	}
}

// TestAccessLogBufferedAndFlushed pins the drain-flush satellite at the
// package level: completed requests sit in the 32KB buffer until Flush
// (or the flush interval) drains them, and every line is valid JSON with
// the phase fields.
func TestAccessLogBufferedAndFlushed(t *testing.T) {
	var buf bytes.Buffer
	p := NewPlane(Options{AccessLog: &buf, FlushEvery: time.Hour})
	defer p.Close()
	sp := p.Begin("count", "trace-1", time.Now())
	sp.To(PhaseRun)
	sp.SetTarget("wi", "tc")
	sp.SetBudget(500, 0)
	sp.End(200, "ok", "")

	if buf.Len() != 0 {
		t.Fatalf("access line written before flush (%d bytes) — writer is not buffered", buf.Len())
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("access line not newline-terminated: %q", line)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("access line is not JSON: %v\n%s", err, line)
	}
	for _, key := range []string{"ts", "trace", "id", "op", "status", "kind", "outcome",
		"graph_key", "schedule", "budget_wall_ms", "wall_us",
		"parse_us", "queue_us", "graph_us", "schedule_us", "run_us", "encode_us"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("access line missing %q: %s", key, line)
		}
	}
	if doc["trace"] != "trace-1" || doc["outcome"] != "ok" || doc["graph_key"] != "wi" {
		t.Fatalf("access line fields wrong: %s", line)
	}
}

// TestSlowLogSnapshot checks the slow path: a request over the threshold
// increments SlowCount and lands in the slow log with its error and the
// diagnostic snapshot (escaped multi-line text included).
func TestSlowLogSnapshot(t *testing.T) {
	var access, slow bytes.Buffer
	p := NewPlane(Options{
		AccessLog:     &access,
		SlowLog:       &slow,
		SlowThreshold: time.Nanosecond, // everything is slow
		FlushEvery:    time.Hour,
	})
	defer p.Close()
	snapCalls := 0
	sp := p.Begin("simulate", "", time.Now())
	sp.SetSnapshot(func() string { snapCalls++; return "governor:\n  line\ttwo \"quoted\"" })
	time.Sleep(time.Microsecond)
	sp.End(408, "budget_wall", "wall budget exceeded")

	if got := p.SlowCount(); got != 1 {
		t.Fatalf("SlowCount = %d, want 1", got)
	}
	if snapCalls != 1 {
		t.Fatalf("snapshot closure called %d times, want 1", snapCalls)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(slow.Bytes(), &doc); err != nil {
		t.Fatalf("slow line is not JSON: %v\n%s", err, slow.String())
	}
	if doc["error"] != "wall budget exceeded" {
		t.Fatalf("slow line error = %v", doc["error"])
	}
	if doc["snapshot"] != "governor:\n  line\ttwo \"quoted\"" {
		t.Fatalf("snapshot did not round-trip: %v", doc["snapshot"])
	}
	// The fast access log got the same request, without the detail.
	var acc map[string]any
	if err := json.Unmarshal(access.Bytes(), &acc); err != nil {
		t.Fatalf("access line invalid: %v", err)
	}
	if _, ok := acc["snapshot"]; ok {
		t.Fatal("access line carries the detailed snapshot")
	}
}

func TestChromeExport(t *testing.T) {
	p := NewPlane(Options{})
	sp := p.Begin("simulate", "trace-c", time.Now())
	sp.To(PhaseRun)
	time.Sleep(2 * time.Millisecond)
	sp.To(PhaseEncode)
	id := sp.id
	sp.End(200, "ok", "")
	v, _ := p.Lookup(id)

	var buf bytes.Buffer
	if err := v.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	var xEvents int
	var lastEnd int64
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		xEvents++
		if e.Ts < lastEnd {
			t.Fatalf("phase %q starts at %d before previous end %d (phases must tile)", e.Name, e.Ts, lastEnd)
		}
		lastEnd = e.Ts + e.Dur
	}
	if xEvents < 2 {
		t.Fatalf("chrome export has %d phase events, want >= 2 (run + encode)", xEvents)
	}
}

// TestMetricsWriterExposition renders a page and checks the Prometheus
// text format invariants: HELP/TYPE pairs, ascending le edges, a +Inf
// bucket matching _count, and integer-rendered values.
func TestMetricsWriterExposition(t *testing.T) {
	p := NewPlane(Options{})
	for i := 0; i < 5; i++ {
		s := p.Begin("count", "", time.Now())
		s.End(200, "ok", "")
	}

	var buf bytes.Buffer
	m := NewMetricsWriter(&buf)
	m.Family("shogun_requests_total", "counter", "Completed requests.")
	for _, f := range p.Families() {
		m.Counter("shogun_requests_total", `op="`+f.Op+`",outcome="`+f.Outcome+`"`, f.Hist.Count())
	}
	m.Family("shogun_request_duration_seconds", "histogram", "Request wall time.")
	for _, f := range p.Families() {
		m.Histo("shogun_request_duration_seconds", `op="`+f.Op+`"`, f.Hist, 1e-6)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	page := buf.String()

	for _, want := range []string{
		"# HELP shogun_requests_total ",
		"# TYPE shogun_requests_total counter",
		`shogun_requests_total{op="count",outcome="ok"} 5`,
		"# TYPE shogun_request_duration_seconds histogram",
		`le="+Inf"} 5`,
		"shogun_request_duration_seconds_count",
		"shogun_request_duration_seconds_sum",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("exposition missing %q:\n%s", want, page)
		}
	}
	// Every sample line is `name{labels} value` or `name value`.
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// sumPhases totals a phase breakdown.
func sumPhases(p Phases) int64 {
	return p.Parse + p.Queue + p.Graph + p.Schedule + p.Run + p.Encode
}
