package obs

import (
	"net/http"
	"sync"
	"time"
)

// Phase names one segment of a request's lifecycle. A span is always in
// exactly one phase; To moves it forward and charges the elapsed time to
// the phase it left, so the recorded durations telescope to the wall
// time with no gaps and no overlaps.
type Phase uint8

// The request lifecycle, in handler order.
const (
	// PhaseParse covers reading and decoding the request body.
	PhaseParse Phase = iota
	// PhaseQueue covers the admission-controller wait (queue depth ×
	// service time — the term that absorbs latency past the saturation
	// knee).
	PhaseQueue
	// PhaseGraph covers graph resolution: cache lookup, and on a miss
	// the single-flight dataset load or upload parse.
	PhaseGraph
	// PhaseSchedule covers schedule resolution: cache lookup, and on a
	// miss the matching-order/restriction compile.
	PhaseSchedule
	// PhaseRun covers the governed run (software mine or simulation).
	PhaseRun
	// PhaseEncode covers writing the response.
	PhaseEncode
	// NumPhases sizes per-phase arrays.
	NumPhases
)

// phaseNames index by Phase.
var phaseNames = [NumPhases]string{"parse", "queue", "graph", "schedule", "run", "encode"}

// String names the phase ("parse", "queue", ...).
func (ph Phase) String() string {
	if ph < NumPhases {
		return phaseNames[ph]
	}
	return "unknown"
}

// Phases is a fixed per-phase duration breakdown. The unit belongs to
// the producer: SpanView carries nanoseconds (exact attribution),
// serve.Response carries microseconds (wire compactness).
type Phases struct {
	Parse    int64 `json:"parse"`
	Queue    int64 `json:"queue"`
	Graph    int64 `json:"graph"`
	Schedule int64 `json:"schedule"`
	Run      int64 `json:"run"`
	Encode   int64 `json:"encode"`
}

// Sum totals the breakdown.
func (p Phases) Sum() int64 {
	return p.Parse + p.Queue + p.Graph + p.Schedule + p.Run + p.Encode
}

// phasesFrom packs a per-phase array into the named struct, dividing by
// div (1 for ns, 1000 for µs).
func phasesFrom(a [NumPhases]int64, div int64) Phases {
	return Phases{
		Parse:    a[PhaseParse] / div,
		Queue:    a[PhaseQueue] / div,
		Graph:    a[PhaseGraph] / div,
		Schedule: a[PhaseSchedule] / div,
		Run:      a[PhaseRun] / div,
		Encode:   a[PhaseEncode] / div,
	}
}

// Span records one request's lifecycle. The handler goroutine owns the
// write side (To, SetTarget, ..., End); the inspection endpoints read
// concurrent consistent snapshots via View. Spans are pooled — never
// retain one past End.
type Span struct {
	plane *Plane
	id    uint64

	mu           sync.Mutex
	trace        [maxTraceLen]byte
	traceLen     int
	op           string
	graphKey     string
	schedule     string
	budgetWallMS int64
	budgetEvents int64

	start   time.Time
	last    time.Time
	cur     Phase
	phaseNS [NumPhases]int64
	wallNS  int64
	status  int
	kind    string
	errMsg  string
	done    bool
	ended   bool

	// progress, when set, joins the span with its running workload's
	// live gauges (the simulate path attaches the epoch sampler here).
	progress func() map[string]int64
	// snapshot, when set, renders a diagnostic state dump for the
	// slow-request log (the simulate path attaches the engine's
	// governor snapshot here).
	snapshot func() string
}

// reset clears a span for pooling. Called with no lock held (the span is
// unreachable: either fresh from the pool or already unregistered).
func (s *Span) reset() {
	*s = Span{}
}

// setTrace installs the inbound trace ID, or generates one.
func (s *Span) setTrace(incoming string) {
	if validTrace(incoming) {
		s.traceLen = copy(s.trace[:], incoming)
		return
	}
	s.traceLen = genTrace(s.trace[:])
}

// TraceID returns the span's trace ID (generated or accepted).
func (s *Span) TraceID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.trace[:s.traceLen])
}

// ID returns the span's registry ID.
func (s *Span) ID() uint64 {
	return s.id
}

// To moves the span into phase ph, charging the time since the previous
// transition to the phase being left.
func (s *Span) To(ph Phase) {
	if ph >= NumPhases {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if !s.ended {
		s.phaseNS[s.cur] += now.Sub(s.last).Nanoseconds()
		s.last = now
		s.cur = ph
	}
	s.mu.Unlock()
}

// SetTarget records what the request resolved to (graph cache key and
// schedule name).
func (s *Span) SetTarget(graphKey, schedule string) {
	s.mu.Lock()
	s.graphKey, s.schedule = graphKey, schedule
	s.mu.Unlock()
}

// SetBudget records the request's declared budgets.
func (s *Span) SetBudget(wallMS, events int64) {
	s.mu.Lock()
	s.budgetWallMS, s.budgetEvents = wallMS, events
	s.mu.Unlock()
}

// SetProgress attaches a live-gauge probe: /v1/requests/{id} calls it
// while the span is in flight to join the request with its running
// workload (e.g. the accelerator's epoch-sampler gauges). fn must be
// safe for concurrent use.
func (s *Span) SetProgress(fn func() map[string]int64) {
	s.mu.Lock()
	s.progress = fn
	s.mu.Unlock()
}

// SetSnapshot attaches a diagnostic-state renderer consulted by the
// slow-request log (e.g. the simulation engine's governor snapshot).
// fn runs after the request's work completed, on the logging path.
func (s *Span) SetSnapshot(fn func() string) {
	s.mu.Lock()
	s.snapshot = fn
	s.mu.Unlock()
}

// End completes the span with the response's status and machine-readable
// error kind ("ok" for 2xx), unregisters it and emits the log lines.
// Idempotent; the span must not be used afterwards.
//
// End is the one Span method that accepts a nil receiver, and only for
// the handler's panic barrier: once a request's span is ended and
// pooled the handler drops its reference, so a panic after that point
// reaches the barrier holding nil and its error path must not end a
// span that may already belong to another request.
func (s *Span) End(status int, kind, errMsg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.status = status
	s.kind = kind
	s.errMsg = errMsg
	s.mu.Unlock()
	s.plane.end(s)
}

// BreakdownUS snapshots the per-phase durations so far in microseconds
// (the Response's phases_us field).
func (s *Span) BreakdownUS() Phases {
	now := time.Now()
	s.mu.Lock()
	a := s.phaseNS
	if !s.ended {
		a[s.cur] += now.Sub(s.last).Nanoseconds()
	}
	s.mu.Unlock()
	return phasesFrom(a, 1e3)
}

// View snapshots the span for inspection.
func (s *Span) View() SpanView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.viewLocked()
}

// viewLocked builds the view with s.mu held.
func (s *Span) viewLocked() SpanView {
	v := SpanView{
		ID:           s.id,
		Trace:        string(s.trace[:s.traceLen]),
		Op:           s.op,
		GraphKey:     s.graphKey,
		Schedule:     s.schedule,
		BudgetWallMS: s.budgetWallMS,
		BudgetEvents: s.budgetEvents,
		StartUnixMS:  s.start.UnixMilli(),
		Done:         s.done,
		Status:       s.status,
		Kind:         s.kind,
		Error:        s.errMsg,
	}
	a := s.phaseNS
	if s.done {
		v.WallNS = s.wallNS
		v.Phase = "done"
		v.Outcome = OutcomeForStatus(s.status)
	} else {
		now := time.Now()
		a[s.cur] += now.Sub(s.last).Nanoseconds()
		v.WallNS = now.Sub(s.start).Nanoseconds()
		v.Phase = s.cur.String()
		// The probe rides only on live views: a completed view in the
		// recent ring must not retain the workload it joined.
		v.progress = s.progress
	}
	v.PhasesNS = phasesFrom(a, 1)
	return v
}

// SpanView is an immutable snapshot of a span, JSON-renderable for the
// /v1/requests endpoints. For a live span WallNS and PhasesNS cover
// elapsed-so-far; for a completed one they are final and PhasesNS sums
// to WallNS exactly.
type SpanView struct {
	ID           uint64 `json:"id"`
	Trace        string `json:"trace"`
	Op           string `json:"op"`
	GraphKey     string `json:"graph_key,omitempty"`
	Schedule     string `json:"schedule,omitempty"`
	BudgetWallMS int64  `json:"budget_wall_ms,omitempty"`
	BudgetEvents int64  `json:"budget_events,omitempty"`
	StartUnixMS  int64  `json:"start_unix_ms"`
	Phase        string `json:"phase"` // current phase, or "done"
	Done         bool   `json:"done"`
	Status       int    `json:"status,omitempty"`
	Kind         string `json:"kind,omitempty"`
	Outcome      string `json:"outcome,omitempty"`
	Error        string `json:"error,omitempty"`
	WallNS       int64  `json:"wall_ns"`
	PhasesNS     Phases `json:"phases_ns"`
	// Progress carries the live workload gauges (epoch-sampler join) on
	// detail views of in-flight requests.
	Progress map[string]int64 `json:"progress,omitempty"`

	progress func() map[string]int64
}

// FillProgress runs the span's live-gauge probe, if any (detail views
// only: listing every in-flight request should not probe them all).
func (v *SpanView) FillProgress() {
	if v.progress != nil && !v.Done {
		v.Progress = v.progress()
	}
}

// OutcomeForStatus classifies an HTTP status into the exposition's
// outcome label.
func OutcomeForStatus(status int) string {
	switch {
	case status >= 200 && status < 300:
		return "ok"
	case status == http.StatusTooManyRequests:
		return "shed"
	case status == http.StatusServiceUnavailable:
		return "unavail"
	case status == http.StatusRequestTimeout, status == http.StatusUnprocessableEntity:
		return "budget"
	case status == 499: // client closed request
		return "client_gone"
	case status >= 400 && status < 500:
		return "client_error"
	default:
		return "error"
	}
}
