package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"shogun/internal/obs"
)

// handleMetrics serves the Prometheus text exposition: request latency
// histograms per (endpoint, outcome), admission gate state, cache
// behavior, in-flight/slow/panic counters and the drain flag. Stdlib
// only — obs.MetricsWriter renders the format, telemetry.Histogram
// supplies exact cumulative buckets.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := obs.NewMetricsWriter(w)

	m.Family("shogun_requests_total", "counter", "Completed requests by endpoint and outcome.")
	fams := s.plane.Families()
	var served int64
	for _, f := range fams {
		n := f.Hist.Count()
		m.Counter("shogun_requests_total", famLabels(f), n)
		served += n
	}
	m.Family("shogun_request_duration_seconds", "histogram", "Request wall time by endpoint and outcome.")
	for _, f := range fams {
		m.Histo("shogun_request_duration_seconds", famLabels(f), f.Hist, 1e-6)
	}

	m.Family("shogun_queue_wait_seconds", "histogram", "Admission wait of admitted requests.")
	m.Histo("shogun_queue_wait_seconds", "", s.queueWait, 1e-6)

	adm := s.adm.Stats()
	m.Family("shogun_admission_workers", "gauge", "Worker pool size.")
	m.Counter("shogun_admission_workers", "", int64(adm.Workers))
	m.Family("shogun_admission_queue_depth", "gauge", "Bounded wait-queue capacity.")
	m.Counter("shogun_admission_queue_depth", "", int64(adm.QueueDepth))
	m.Family("shogun_admission_active", "gauge", "Requests holding a worker slot.")
	m.Counter("shogun_admission_active", "", int64(adm.Active))
	m.Family("shogun_admission_waiting", "gauge", "Requests parked in the wait queue.")
	m.Counter("shogun_admission_waiting", "", int64(adm.Waiting))
	m.Family("shogun_admission_admitted_total", "counter", "Requests granted a worker slot.")
	m.Counter("shogun_admission_admitted_total", "", adm.Admitted)
	m.Family("shogun_admission_shed_total", "counter", "Requests shed with 429 at a full queue.")
	m.Counter("shogun_admission_shed_total", "", adm.Shed)
	m.Family("shogun_admission_refused_total", "counter", "Requests refused with 503 while draining.")
	m.Counter("shogun_admission_refused_total", "", adm.Refused)
	m.Family("shogun_admission_aborted_total", "counter", "Requests that left the queue on cancellation.")
	m.Counter("shogun_admission_aborted_total", "", adm.Aborted)
	m.Family("shogun_admission_ewma_service_seconds", "gauge", "EWMA of request service time.")
	m.Gauge("shogun_admission_ewma_service_seconds", "", adm.EwmaSvcMS/1e3)

	m.Family("shogun_cache_hits_total", "counter", "Cache hits by cache.")
	m.Family("shogun_cache_misses_total", "counter", "Cache misses (including single-flight waits) by cache.")
	m.Family("shogun_cache_evictions_total", "counter", "Entries evicted to fit the budget by cache.")
	m.Family("shogun_cache_evicted_bytes_total", "counter", "Bytes evicted to fit the budget by cache.")
	m.Family("shogun_cache_used_bytes", "gauge", "Resident bytes by cache.")
	m.Family("shogun_cache_budget_bytes", "gauge", "Memory budget by cache.")
	m.Family("shogun_cache_entries", "gauge", "Resident entries by cache.")
	for _, c := range []struct {
		name  string
		stats CacheStats
	}{
		{"graph", s.graphs.Stats()},
		{"schedule", s.scheds.Stats()},
	} {
		l := `cache="` + c.name + `"`
		m.Counter("shogun_cache_hits_total", l, c.stats.Hits)
		m.Counter("shogun_cache_misses_total", l, c.stats.Misses)
		m.Counter("shogun_cache_evictions_total", l, c.stats.Evictions)
		m.Counter("shogun_cache_evicted_bytes_total", l, c.stats.EvictedBytes)
		m.Counter("shogun_cache_used_bytes", l, c.stats.UsedBytes)
		m.Counter("shogun_cache_budget_bytes", l, c.stats.Budget)
		m.Counter("shogun_cache_entries", l, int64(c.stats.Entries))
	}

	m.Family("shogun_inflight_requests", "gauge", "Requests currently between Begin and End.")
	m.Counter("shogun_inflight_requests", "", int64(s.plane.InFlight()))
	m.Family("shogun_slow_requests_total", "counter", "Requests over the slow-log threshold.")
	m.Counter("shogun_slow_requests_total", "", s.plane.SlowCount())
	m.Family("shogun_contained_panics_total", "counter", "Requests that hit the panic barrier.")
	m.Counter("shogun_contained_panics_total", "", s.panicked.Load())
	m.Family("shogun_served_total", "counter", "Responses written, any status.")
	m.Counter("shogun_served_total", "", served)
	m.Family("shogun_draining", "gauge", "1 once graceful drain has started.")
	drain := int64(0)
	if s.adm.Draining() {
		drain = 1
	}
	m.Counter("shogun_draining", "", drain)

	if err := m.Err(); err != nil {
		s.logf("metrics: %v", err)
	}
}

func famLabels(f obs.Family) string {
	return `op="` + f.Op + `",outcome="` + f.Outcome + `"`
}

// RequestsPage is the GET /v1/requests document: the live in-flight set
// joined with the recently completed ring.
type RequestsPage struct {
	InFlight []obs.SpanView `json:"in_flight"`
	Recent   []obs.SpanView `json:"recent"`
}

// handleRequests serves the live in-flight listing.
func (s *Server) handleRequests(w http.ResponseWriter, r *http.Request) {
	page := RequestsPage{InFlight: s.plane.Snapshot(), Recent: s.plane.Recent()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(page) //nolint:errcheck // client-side failure
}

// handleRequestByID serves one request's detail: the span breakdown,
// joined with the running accelerator's epoch-sampler gauges while it is
// in flight, or exported as a Chrome trace with ?format=chrome.
func (s *Server) handleRequestByID(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/requests/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request id %q (want the numeric id from /v1/requests)", idStr), http.StatusBadRequest)
		return
	}
	v, ok := s.plane.Lookup(id)
	if !ok {
		http.Error(w, fmt.Sprintf("request %d is neither in flight nor in the recent ring", id), http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf(`attachment; filename="request-%d.trace.json"`, id))
		if err := v.WriteChrome(w); err != nil {
			s.logf("chrome export %d: %v", id, err)
		}
		return
	}
	v.FillProgress()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client-side failure
}
