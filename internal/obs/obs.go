// Package obs is the serving layer's request observability plane. Where
// internal/metrics instruments the simulated chip and internal/telemetry
// makes one run time-resolved, obs makes the daemon's *requests*
// observable: every request gets a trace ID and a Span that attributes
// its wall time to lifecycle phases (parse, admission-queue wait, graph
// load, schedule compile, governed run, response encode), a registry
// keeps the in-flight set inspectable while requests run, completed
// requests land in structured JSON access/slow logs, and per-(endpoint,
// outcome) latency histograms back a Prometheus-text /metrics plane.
//
// The design constraints:
//
//   - Always on, and cheap. The daemon has one request path and it is
//     observed: a request's whole hook sequence (Begin, phase moves,
//     End) costs one to three microseconds and at most one allocation,
//     thanks to pooled spans (pinned by TestServeObsLifecycleAllocs,
//     measured by BenchmarkServeObsOn) — a few thousandths of a percent
//     of a served query. There is no nil-plane off mode.
//   - Attribution is conservative. Phase durations are recorded as
//     differences of one monotonic timestamp chain, so for every
//     completed request they telescope: the phases sum to the measured
//     wall time exactly (pinned by TestSpanAttributionConservative).
//   - Live reads are safe. The inspection endpoints snapshot spans and
//     registry state under locks while handlers keep writing.
//
// The package depends only on the standard library and
// internal/telemetry (whose mergeable Histogram backs the latency
// families).
package obs

import (
	"encoding/hex"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"time"

	"shogun/internal/telemetry"
)

// TraceHeader is the HTTP header a trace ID is accepted from and echoed
// on: callers propagate their own IDs across retries and services, and
// every response carries the ID its access-log line is keyed by.
const TraceHeader = "X-Shogun-Trace"

// maxTraceLen bounds accepted trace IDs (generated ones are 16 hex
// chars; inbound IDs up to this length are taken verbatim).
const maxTraceLen = 64

// Options parameterizes a Plane.
type Options struct {
	// AccessLog, when non-nil, receives one JSON line per completed
	// request. Writes are buffered; Flush drains them (the daemon
	// flushes during graceful drain so a SIGTERM never loses the final
	// requests).
	AccessLog io.Writer
	// SlowLog, when non-nil, receives a detailed JSON line (full phase
	// breakdown, error, governor snapshot when one was attached) for
	// every request slower than SlowThreshold.
	SlowLog io.Writer
	// SlowThreshold classifies a request as slow (default 1s).
	SlowThreshold time.Duration
	// Recent bounds the ring of completed-request views kept for
	// /v1/requests inspection and on-demand Chrome export (default 64).
	Recent int
	// FlushEvery bounds how long a completed request may sit in the log
	// buffers before an automatic flush (default 1s).
	FlushEvery time.Duration
}

func (o *Options) fill() {
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = time.Second
	}
	if o.Recent <= 0 {
		o.Recent = 64
	}
	if o.FlushEvery <= 0 {
		o.FlushEvery = time.Second
	}
}

// Plane is one daemon's observability state: the span pool, the
// in-flight registry, the completed-request ring, the per-(op, outcome)
// latency families and the log writers.
type Plane struct {
	opts   Options
	access *lineLog
	slow   *lineLog

	pool sync.Pool

	mu        sync.Mutex
	idSeq     uint64
	inflight  map[uint64]*Span
	recent    []SpanView // ring, newest at recentPos-1
	recentPos int
	recentN   int

	famMu    sync.RWMutex
	families map[famKey]*telemetry.Histogram

	slowCount int64 // guarded by mu
}

type famKey struct{ op, outcome string }

// NewPlane builds a plane. The zero Options value is valid: no logs,
// default thresholds.
func NewPlane(opts Options) *Plane {
	opts.fill()
	p := &Plane{
		opts:     opts,
		inflight: make(map[uint64]*Span, 64),
		recent:   make([]SpanView, opts.Recent),
		families: make(map[famKey]*telemetry.Histogram, 24),
	}
	if opts.AccessLog != nil {
		p.access = newLineLog(opts.AccessLog, opts.FlushEvery)
	}
	if opts.SlowLog != nil {
		p.slow = newLineLog(opts.SlowLog, opts.FlushEvery)
	}
	p.pool.New = func() any { return new(Span) }
	return p
}

// Begin opens a span for one request arriving at start. incoming is the
// caller-supplied trace ID (empty or invalid → a fresh one is
// generated).
func (p *Plane) Begin(op, incoming string, start time.Time) *Span {
	s := p.pool.Get().(*Span)
	s.reset()
	s.plane = p
	s.op = op
	s.start = start
	s.last = start
	s.setTrace(incoming)

	p.mu.Lock()
	p.idSeq++
	s.id = p.idSeq
	p.inflight[s.id] = s
	p.mu.Unlock()
	return s
}

// InFlight reports the number of registered live spans.
func (p *Plane) InFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inflight)
}

// SlowCount reports requests that crossed the slow threshold.
func (p *Plane) SlowCount() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.slowCount
}

// end unregisters the span, folds it into the latency families and the
// completed ring, writes the logs and returns the span to the pool.
// Called exactly once per span (Span.End guards re-entry).
//
// Pooling is safe because the inspection endpoints only reach spans
// through p.inflight and only view them while holding p.mu: the delete
// below happens under p.mu strictly before reset(), so once we release
// the lock no reader can still hold this *Span.
func (p *Plane) end(s *Span) {
	now := time.Now()
	s.mu.Lock()
	s.phaseNS[s.cur] += now.Sub(s.last).Nanoseconds()
	s.last = now
	s.wallNS = now.Sub(s.start).Nanoseconds()
	s.done = true
	v := s.viewLocked()
	s.mu.Unlock()

	p.observe(s.op, v.Outcome, v.WallNS/1e3)

	slow := time.Duration(v.WallNS) >= p.opts.SlowThreshold
	var snap string
	if slow && s.snapshot != nil {
		snap = s.snapshot()
	}

	p.mu.Lock()
	delete(p.inflight, s.id)
	p.recent[p.recentPos] = v
	p.recentPos = (p.recentPos + 1) % len(p.recent)
	if p.recentN < len(p.recent) {
		p.recentN++
	}
	if slow {
		p.slowCount++
	}
	p.mu.Unlock()

	if p.access != nil {
		p.access.log(&v, "", false)
	}
	if slow && p.slow != nil {
		p.slow.log(&v, snap, true)
	}

	s.reset() // drop closures and references before pooling
	p.pool.Put(s)
}

// observe folds one completed request into its (op, outcome) latency
// family. The family histogram doubles as the request counter for the
// exposition (count == requests, distribution == latency).
func (p *Plane) observe(op, outcome string, us int64) {
	k := famKey{op, outcome}
	p.famMu.RLock()
	h := p.families[k]
	p.famMu.RUnlock()
	if h == nil {
		p.famMu.Lock()
		if h = p.families[k]; h == nil {
			h = telemetry.NewHistogram()
			p.families[k] = h
		}
		p.famMu.Unlock()
	}
	h.Observe(us)
}

// Family is one (op, outcome) latency family of the exposition.
type Family struct {
	Op      string
	Outcome string
	Hist    *telemetry.Histogram
}

// Families returns the latency families in deterministic order.
func (p *Plane) Families() []Family {
	p.famMu.RLock()
	out := make([]Family, 0, len(p.families))
	for k, h := range p.families {
		out = append(out, Family{Op: k.op, Outcome: k.outcome, Hist: h})
	}
	p.famMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		return out[i].Outcome < out[j].Outcome
	})
	return out
}

// Snapshot lists the live spans (oldest first) followed by nothing —
// completed requests are listed by Recent.
//
// The views are built while p.mu is held: end() removes a span from
// inflight under p.mu before resetting and pooling it, so any span
// reachable here cannot be reset (or reissued by Begin) until we
// release the lock. Viewing after unlock would race with that reset.
// Lock order is p.mu → s.mu; no writer acquires p.mu while holding
// s.mu, so this cannot deadlock.
func (p *Plane) Snapshot() []SpanView {
	p.mu.Lock()
	out := make([]SpanView, 0, len(p.inflight))
	for _, s := range p.inflight {
		// end() marks a span done under s.mu before unregistering it
		// under p.mu, so a completed span can linger here for a moment;
		// it is no longer live and is about to land in the recent ring.
		if v := s.View(); !v.Done {
			out = append(out, v)
		}
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Recent lists the completed-request ring, newest first.
func (p *Plane) Recent() []SpanView {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SpanView, 0, p.recentN)
	for i := 0; i < p.recentN; i++ {
		idx := (p.recentPos - 1 - i + len(p.recent)) % len(p.recent)
		out = append(out, p.recent[idx])
	}
	return out
}

// Lookup finds a request by ID, live or recently completed. As in
// Snapshot, a live span is viewed while p.mu is still held so the view
// cannot race with end()'s reset of the same span.
func (p *Plane) Lookup(id uint64) (SpanView, bool) {
	p.mu.Lock()
	if s, ok := p.inflight[id]; ok {
		v := s.View()
		p.mu.Unlock()
		return v, true
	}
	for i := 0; i < p.recentN; i++ {
		idx := (p.recentPos - 1 - i + len(p.recent)) % len(p.recent)
		if p.recent[idx].ID == id {
			v := p.recent[idx]
			p.mu.Unlock()
			return v, true
		}
	}
	p.mu.Unlock()
	return SpanView{}, false
}

// Flush drains the buffered access and slow logs. The daemon calls this
// during graceful drain so the final requests of a SIGTERM drain are
// never lost in a buffer.
func (p *Plane) Flush() error {
	var first error
	if err := p.access.flush(); err != nil {
		first = err
	}
	if err := p.slow.flush(); err != nil && first == nil {
		first = err
	}
	return first
}

// Close stops the background log flushers and drains both logs one
// last time. Idempotent; spans already in flight may
// still End afterwards (their lines land in the buffer and reach the
// writer on the next explicit Flush).
func (p *Plane) Close() error {
	var first error
	if err := p.access.close(); err != nil {
		first = err
	}
	if err := p.slow.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// traceSeed decorrelates generated trace IDs across daemon restarts; the
// per-request entropy comes from math/rand/v2's process-global source.
var traceSeed = rand.Uint64()

// genTrace writes a fresh 16-hex-char trace ID into dst and reports its
// length. dst must hold at least 16 bytes.
func genTrace(dst []byte) int {
	var raw [8]byte
	v := rand.Uint64() ^ traceSeed
	for i := 0; i < 8; i++ {
		raw[i] = byte(v >> (8 * i))
	}
	hex.Encode(dst[:16], raw[:])
	return 16
}

// validTrace reports whether an inbound trace ID is acceptable verbatim:
// 1..maxTraceLen characters from [0-9A-Za-z._-].
func validTrace(s string) bool {
	if len(s) == 0 || len(s) > maxTraceLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
