package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"shogun/internal/obs"
	"shogun/internal/telemetry"
)

// LoadOptions parameterizes one open-loop load level against a running
// daemon.
type LoadOptions struct {
	// URL is the full query endpoint, e.g. "http://127.0.0.1:8477/v1/count".
	URL string
	// Body is the JSON request sent on every query.
	Body []byte
	// QPS is the open-loop arrival rate: request i is due i/QPS after
	// the start regardless of completions (that is what makes
	// saturation visible — a closed loop would self-throttle and hide
	// the knee).
	QPS float64
	// Duration is how long to offer load.
	Duration time.Duration
	// Timeout bounds each request on the client side (default 30s).
	Timeout time.Duration
	// MaxInFlight is the generator's own safety valve: arrivals beyond
	// it are counted as Dropped instead of spawning goroutines without
	// bound (default 4096).
	MaxInFlight int
	// Client overrides the HTTP client (tests).
	Client *http.Client
}

// LoadReport summarizes one load level. Latencies are client-observed,
// in microseconds from each request's due time, split by outcome:
// Latency covers accepted (2xx) responses, ShedLatency covers 429s
// (sheds must be fast — that is the point of shedding).
type LoadReport struct {
	QPS        float64       `json:"qps"`
	Duration   time.Duration `json:"-"`
	DurationMS int64         `json:"duration_ms"`
	Offered    int64         `json:"offered"`     // arrivals the schedule made due
	Sent       int64         `json:"sent"`        // requests actually issued
	Dropped    int64         `json:"dropped"`     // generator in-flight cap hit
	Accepted   int64         `json:"accepted"`    // 2xx
	Shed       int64         `json:"shed"`        // 429
	Unavail    int64         `json:"unavailable"` // 503 (draining)
	Budgeted   int64         `json:"budgeted"`    // 408/422 typed budget errors
	Failed     int64         `json:"failed"`      // transport errors, 5xx, timeouts

	Latency     telemetry.HistSummary `json:"latency_us"`
	ShedLatency telemetry.HistSummary `json:"shed_latency_us"`

	// ServerPhasesUS breaks accepted-request server time down by phase
	// (parse/queue/graph/schedule/run/encode), aggregated from the
	// phases_us attribution each 2xx response carries when the daemon
	// runs with observability on. Empty when the daemon does not report
	// phases. This is what lets a saturation sweep show queue-wait —
	// not run time — absorbing the latency past the knee.
	ServerPhasesUS map[string]telemetry.HistSummary `json:"server_phases_us,omitempty"`

	// StatusCounts maps HTTP status → count (0 = transport error).
	StatusCounts map[int]int64 `json:"status_counts"`
	// Embeddings maps each distinct embedding count observed in 2xx
	// responses to its frequency; a correct daemon yields exactly one
	// key, so callers can verify bit-exactness against a golden count.
	Embeddings map[int64]int64 `json:"embeddings"`
}

// AcceptRate reports accepted / sent.
func (r *LoadReport) AcceptRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(r.Sent)
}

// ShedRate reports shed / sent.
func (r *LoadReport) ShedRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Shed) / float64(r.Sent)
}

// RunLoad offers opts.QPS of identical queries for opts.Duration and
// reports what came back. It returns early (with the partial report)
// only if ctx is cancelled; server-side rejections are data, not
// errors.
func RunLoad(ctx context.Context, opts LoadOptions) (*LoadReport, error) {
	if !(opts.QPS > 0) || math.IsInf(opts.QPS, 1) {
		return nil, fmt.Errorf("serve: load QPS must be positive and finite (got %g)", opts.QPS)
	}
	if opts.Duration <= 0 {
		return nil, fmt.Errorf("serve: load duration must be positive (got %v)", opts.Duration)
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4096
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: opts.Timeout}
		defer client.CloseIdleConnections()
	}

	rep := &LoadReport{
		QPS:          opts.QPS,
		Duration:     opts.Duration,
		DurationMS:   opts.Duration.Milliseconds(),
		StatusCounts: map[int]int64{},
		Embeddings:   map[int64]int64{},
	}
	accLat := telemetry.NewHistogram()
	shedLat := telemetry.NewHistogram()
	var phases phaseHists
	for i := range phases.h {
		phases.h[i] = telemetry.NewHistogram()
	}
	var mu sync.Mutex // guards the report maps
	var inflight atomic.Int64
	var wg sync.WaitGroup

	// Arrival i is due at start + i/QPS, whenever earlier requests come
	// back. A generator that falls behind sends what it owes at once,
	// and each request is timed from its due time, so the lag shows in
	// the latencies instead of thinning the offered load.
	start := time.Now()
	cancelled := false
	for i := 0; ; i++ {
		at := time.Duration(float64(i) * float64(time.Second) / opts.QPS)
		if at >= opts.Duration {
			break
		}
		due := start.Add(at)
		if cancelled = !sleepUntil(ctx, due); cancelled {
			break
		}
		rep.Offered++
		if inflight.Load() >= int64(opts.MaxInFlight) {
			rep.Dropped++
			continue
		}
		rep.Sent++
		inflight.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			status, emb := oneRequest(ctx, client, opts, due, accLat, shedLat, &phases)
			mu.Lock()
			rep.StatusCounts[status]++
			switch {
			case status >= 200 && status < 300:
				rep.Accepted++
				rep.Embeddings[emb]++
			case status == http.StatusTooManyRequests:
				rep.Shed++
			case status == http.StatusServiceUnavailable:
				rep.Unavail++
			case status == http.StatusRequestTimeout || status == http.StatusUnprocessableEntity:
				rep.Budgeted++
			default:
				rep.Failed++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	rep.Latency = accLat.Summary()
	rep.ShedLatency = shedLat.Summary()
	rep.ServerPhasesUS = phases.summaries()
	if cancelled {
		return rep, ctx.Err()
	}
	return rep, nil
}

// sleepUntil waits until t, and reports false if ctx ends first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// phaseHists aggregates the server-reported phase attribution from 2xx
// responses, one histogram per obs phase. Histograms are atomic, so the
// load goroutines write without the report mutex.
type phaseHists struct {
	h   [obs.NumPhases]*telemetry.Histogram
	any atomic.Bool // set once the first response carries phases_us
}

func (p *phaseHists) observe(ph *obs.Phases) {
	if ph == nil {
		return
	}
	p.any.Store(true)
	p.h[obs.PhaseParse].Observe(ph.Parse)
	p.h[obs.PhaseQueue].Observe(ph.Queue)
	p.h[obs.PhaseGraph].Observe(ph.Graph)
	p.h[obs.PhaseSchedule].Observe(ph.Schedule)
	p.h[obs.PhaseRun].Observe(ph.Run)
	p.h[obs.PhaseEncode].Observe(ph.Encode)
}

func (p *phaseHists) summaries() map[string]telemetry.HistSummary {
	if !p.any.Load() {
		return nil
	}
	out := make(map[string]telemetry.HistSummary, obs.NumPhases)
	for i, h := range p.h {
		out[obs.Phase(i).String()] = h.Summary()
	}
	return out
}

// oneRequest issues a single query, recording its latency from its due
// time by outcome. Status 0 means the request never produced an HTTP
// response.
func oneRequest(ctx context.Context, client *http.Client, opts LoadOptions, due time.Time, accLat, shedLat *telemetry.Histogram, phases *phaseHists) (status int, embeddings int64) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, opts.URL, bytes.NewReader(opts.Body))
	if err != nil {
		return 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		// A cancelled sweep is not a transport failure worth recording.
		if errors.Is(err, context.Canceled) {
			return 0, 0
		}
		return 0, 0
	}
	defer resp.Body.Close()
	lat := time.Since(due).Microseconds()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		accLat.Observe(lat)
		var body Response
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&body) == nil {
			embeddings = body.Embeddings
			phases.observe(body.PhasesUS)
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		shedLat.Observe(lat)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
	default:
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
	}
	return resp.StatusCode, embeddings
}

// String renders a one-line digest for sweep tables.
func (r *LoadReport) String() string {
	return fmt.Sprintf("qps=%-6g sent=%-6d ok=%-6d shed=%-5d budget=%-4d fail=%-4d p50=%.1fms p99=%.1fms shed-p99=%.1fms",
		r.QPS, r.Sent, r.Accepted, r.Shed, r.Budgeted, r.Failed,
		float64(r.Latency.P50)/1000, float64(r.Latency.P99)/1000, float64(r.ShedLatency.P99)/1000)
}
