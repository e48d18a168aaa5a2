package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/datasets"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/obs"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// Config parameterizes a daemon.
type Config struct {
	// Addr is the listen address (":0" picks a free port; see Addr()).
	Addr string
	// Workers bounds concurrently executing queries (default 4).
	Workers int
	// QueueDepth bounds queries waiting for a worker; overflow is shed
	// with 429 (default 2×Workers).
	QueueDepth int
	// CacheBytes budgets the shared graph/schedule cache (default 256 MiB).
	CacheBytes int64
	// MaxBodyBytes caps request bodies, i.e. uploaded edge lists
	// (default 8 MiB).
	MaxBodyBytes int64
	// MaxWall is the per-request wall-clock ceiling: a request may ask
	// for less but never more (default 30s).
	MaxWall time.Duration
	// DefaultWall applies when a request specifies no wall budget
	// (default MaxWall).
	DefaultWall time.Duration
	// MaxEvents is the per-request simulation event ceiling (0 = none);
	// requests may tighten but not exceed it.
	MaxEvents int64
	// MinerWorkers bounds the software miner's goroutines per request
	// (default 1: parallelism comes from the worker pool, not from one
	// query monopolizing the host).
	MinerWorkers int
	// DrainGrace is how long before the drain deadline in-flight work is
	// hard-cancelled, leaving room to write error responses (default 1s,
	// clamped to half the drain timeout).
	DrainGrace time.Duration
	// NotReadyDelay is how long Drain keeps serving after flipping
	// /readyz to 503 before it stops accepting connections, giving load
	// balancers time to notice (default 0; clamped to a quarter of the
	// drain timeout).
	NotReadyDelay time.Duration
	// OnAccel, when set, observes every accelerator the daemon builds,
	// after accel.New and before the run (the chaos harness's injection
	// point).
	OnAccel func(*accel.Accelerator)
	// Log, when non-nil, receives one line per served request.
	Log io.Writer
	// Obs configures the request observability plane: trace IDs,
	// per-phase span attribution, the /metrics exposition, /v1/requests
	// live inspection and the access/slow logs. The plane is always on;
	// nil means the default ObsConfig.
	Obs *ObsConfig
}

// ObsConfig parameterizes the request observability plane (see
// internal/obs and DESIGN.md "Request observability").
type ObsConfig struct {
	// AccessLog, when non-nil, receives one structured JSON line per
	// completed request (buffered; flushed during graceful drain).
	AccessLog io.Writer
	// SlowLog, when non-nil, receives the detailed breakdown (full
	// phases, error, governor snapshot) of every request slower than
	// SlowThreshold.
	SlowLog io.Writer
	// SlowThreshold classifies a request as slow (default 1s).
	SlowThreshold time.Duration
	// SampleEvery is the epoch-sampler spacing (cycles) wired into
	// served simulations so /v1/requests/{id} can join an in-flight
	// request with its accelerator's live gauges (default 4096;
	// negative disables sampling).
	SampleEvery int
	// Recent bounds the completed-request ring kept for inspection and
	// on-demand Chrome export (default 64).
	Recent int
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxWall <= 0 {
		c.MaxWall = 30 * time.Second
	}
	if c.DefaultWall <= 0 || c.DefaultWall > c.MaxWall {
		c.DefaultWall = c.MaxWall
	}
	if c.MinerWorkers <= 0 {
		c.MinerWorkers = 1
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = time.Second
	}
}

// cachedGraph pairs a resolved graph with the key it is cached under
// (schedules over uploaded graphs reuse the upload hash).
type cachedGraph struct {
	g   *graph.Graph
	key string
}

// Server is the shogund daemon: one long-lived process serving
// count/mine/simulate queries with bounded concurrency, bounded memory,
// typed failure responses, and a graceful drain sequence.
type Server struct {
	cfg    Config
	ln     net.Listener
	http   *http.Server
	adm    *Admission
	graphs *Cache[cachedGraph]
	scheds *Cache[*pattern.Schedule]

	// hardCtx cancels in-flight request work when the drain deadline
	// approaches; per-request contexts are derived from it.
	hardCtx    context.Context
	hardCancel context.CancelFunc

	panicked  atomic.Int64         // requests that hit the panic barrier
	queueWait *telemetry.Histogram // µs, time from arrival to admission

	// plane is the request observability layer and the one place a
	// request is classified, counted and timed: /statz and /metrics
	// both derive their request counts and latencies from its families.
	plane       *obs.Plane
	sampleEvery int
	// drainUntil is the drain deadline (unix nanos, 0 before Drain):
	// 503 Retry-After hints switch from the EWMA backlog estimate to
	// "when this process will be gone" once it is set.
	drainUntil atomic.Int64
}

// New binds cfg.Addr and returns a ready-to-Serve daemon. It fails fast
// on an unusable address.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Addr == "" {
		cfg.Addr = ":0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		ln:         ln,
		adm:        NewAdmission(cfg.Workers, cfg.QueueDepth),
		graphs:     NewCache[cachedGraph](cfg.CacheBytes * 15 / 16),
		scheds:     NewCache[*pattern.Schedule](cfg.CacheBytes / 16),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
		queueWait:  telemetry.NewHistogram(),
	}
	var oc ObsConfig
	if cfg.Obs != nil {
		oc = *cfg.Obs
	}
	s.plane = obs.NewPlane(obs.Options{
		AccessLog:     oc.AccessLog,
		SlowLog:       oc.SlowLog,
		SlowThreshold: oc.SlowThreshold,
		Recent:        oc.Recent,
	})
	switch {
	case oc.SampleEvery > 0:
		s.sampleEvery = oc.SampleEvery
	case oc.SampleEvery == 0:
		s.sampleEvery = 4096
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/requests", s.handleRequests)
	mux.HandleFunc("/v1/requests/", s.handleRequestByID)
	mux.HandleFunc("/v1/count", s.handleQuery(OpCount))
	mux.HandleFunc("/v1/mine", s.handleQuery(OpMine))
	mux.HandleFunc("/v1/simulate", s.handleQuery(OpSimulate))
	// Profiles on the main listener, beside /statz and /metrics: a CPU
	// profile then sees runLabeled's endpoint and pattern labels.
	telemetry.MountDebug(mux)
	// The hardened constructor is shared with the telemetry inspection
	// server: header/read/write/idle timeouts so one slow client cannot
	// pin a connection forever.
	s.http = telemetry.HardenedHTTPServer(mux)
	return s, nil
}

// Addr reports the bound address (resolves ":0" to the picked port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until Drain (or Close) stops the daemon; it
// returns nil after a clean shutdown.
func (s *Server) Serve() error {
	err := s.http.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Drain performs the graceful shutdown sequence: stop admitting (readyz
// flips to 503, queued waiters fail with ErrDraining), keep answering
// on open connections for NotReadyDelay so load balancers see the 503,
// then stop the listener and let in-flight requests finish,
// hard-cancelling whatever is still running DrainGrace before the
// deadline. It returns nil when every in-flight request completed
// (possibly cancelled) within the timeout.
func (s *Server) Drain(timeout time.Duration) error {
	start := time.Now()
	s.drainUntil.Store(start.Add(timeout).UnixNano())
	s.adm.StartDrain()
	// Whatever else happens below, the final requests' access/slow log
	// lines must not die in a buffer when the process exits. Close also
	// stops the plane's background flushers.
	defer s.plane.Close() //nolint:errcheck // flush error surfaced via Flush in tests
	grace := s.cfg.DrainGrace
	if grace > timeout/2 {
		grace = timeout / 2
	}
	hard := time.AfterFunc(timeout-grace, s.hardCancel)
	defer hard.Stop()
	if delay := min(s.cfg.NotReadyDelay, timeout/4); delay > 0 {
		time.Sleep(delay)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout-time.Since(start))
	defer cancel()
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Deadline blown: cancel outright and tear the server down.
		s.hardCancel()
		s.http.Close()
		return fmt.Errorf("serve: drain exceeded %v: %w", timeout, err)
	}
	s.hardCancel()
	return nil
}

// Close tears the daemon down immediately (tests); prefer Drain.
func (s *Server) Close() error {
	s.adm.StartDrain()
	s.hardCancel()
	err := s.http.Close()
	if ferr := s.plane.Close(); err == nil {
		err = ferr
	}
	return err
}

// Op names a query kind.
type Op string

// The daemon's query kinds.
const (
	OpCount    Op = "count"    // software miner, embedding count only
	OpMine     Op = "mine"     // software miner, full statistics
	OpSimulate Op = "simulate" // cycle-level accelerator simulation
)

// Budget carries a request's resource limits; the server clamps each to
// its configured ceiling.
type Budget struct {
	// MaxEvents aborts a simulation after this many engine events
	// (0 = server ceiling; count/mine ignore it).
	MaxEvents int64 `json:"max_events,omitempty"`
	// DeadlineCycles aborts a simulation past this simulated time.
	DeadlineCycles int64 `json:"deadline_cycles,omitempty"`
	// MaxWallMS bounds the request's wall-clock time (0 = server default).
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
}

// Request is the JSON body accepted by /v1/count, /v1/mine and
// /v1/simulate.
type Request struct {
	// Dataset names a built-in analogue (wi|as|yo|pa|lj|or) …
	Dataset string `json:"dataset,omitempty"`
	// … or Graph carries an uploaded whitespace edge list ("u v" lines).
	Graph string `json:"graph,omitempty"`
	// Pattern names a paper pattern (tc, 4cl, …; _v suffix = induced) …
	Pattern string `json:"pattern,omitempty"`
	// … or PatternEdges gives a custom pattern ("0-1,1-2,2-0").
	PatternEdges string `json:"pattern_edges,omitempty"`
	// Induced selects vertex-induced matching semantics.
	Induced bool `json:"induced,omitempty"`
	// Scheme picks the simulated scheduling scheme (simulate only;
	// default "shogun").
	Scheme string `json:"scheme,omitempty"`
	// PEs / Width override the simulated machine shape (simulate only).
	PEs   int  `json:"pes,omitempty"`
	Width int  `json:"width,omitempty"`
	Split bool `json:"split,omitempty"`
	Merge bool `json:"merge,omitempty"`
	// Chips sets the simulated machine's chip count (simulate only;
	// default 1): the machine above is replicated per chip and the
	// root-vertex space is split by Partition (replicate | hash | range;
	// default replicate) with PartitionSeed driving the hash partitioner.
	Chips         int    `json:"chips,omitempty"`
	Partition     string `json:"partition,omitempty"`
	PartitionSeed int64  `json:"partition_seed,omitempty"`
	// Budget bounds the request.
	Budget Budget `json:"budget,omitempty"`
}

// Response is the JSON body of a successful query.
type Response struct {
	Op         Op     `json:"op"`
	Embeddings int64  `json:"embeddings"`
	GraphKey   string `json:"graph_key"`
	Schedule   string `json:"schedule"`

	// Software-miner statistics (mine).
	Tasks         int64   `json:"tasks,omitempty"`
	SetOpElements int64   `json:"setop_elements,omitempty"`
	LinesPerTask  float64 `json:"lines_per_task,omitempty"`

	// Simulation statistics (simulate).
	Cycles    int64   `json:"cycles,omitempty"`
	SimTasks  int64   `json:"sim_tasks,omitempty"`
	IUUtil    float64 `json:"iu_util,omitempty"`
	L1HitRate float64 `json:"l1_hit_rate,omitempty"`
	Events    int64   `json:"events,omitempty"`
	Splits    int64   `json:"splits,omitempty"`
	Merges    int64   `json:"merges,omitempty"`

	// Cluster statistics (simulate; one chip is the 1-chip cluster).
	Chips         int     `json:"chips,omitempty"`
	Migrations    int64   `json:"migrations,omitempty"`
	MaxOccupancy  float64 `json:"max_occupancy,omitempty"`
	MeanOccupancy float64 `json:"mean_occupancy,omitempty"`

	// Trace echoes the request's trace ID (also in the X-Shogun-Trace
	// response header).
	Trace string `json:"trace,omitempty"`
	// PhasesUS attributes the request's server-side time to lifecycle
	// phases (µs); queue is the admission wait, run the governed run.
	// Encode is still running when the response is serialized, so it
	// reads 0 here; the access log has the final value.
	PhasesUS *obs.Phases `json:"phases_us,omitempty"`
}

// ErrorBody is the JSON body of every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
	// Kind is the machine-readable error class; see DESIGN.md "Serving &
	// overload behavior" for the full status table.
	Kind string `json:"kind"`
	// RetryAfterS mirrors the Retry-After header on 429/503.
	RetryAfterS int64 `json:"retry_after_s,omitempty"`
}

// StatusClientClosed is nginx's non-standard 499 "client closed
// request", used when the requester went away mid-query.
const StatusClientClosed = 499

// classify maps an error to its HTTP status and machine-readable kind.
// Each typed failure gets a distinct status: overload is 429, drain
// 503, client-gone 499, wall budget 408, simulated budgets 422, bad
// input 400, an upload over the vertex cap 413, unknown names 404,
// contained panics and deadlocks 500.
func classify(err error) (status int, kind string) {
	var inv *sim.InvariantError
	var dead *sim.DeadlockError
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, errBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, errTooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, sim.ErrWallBudget):
		return http.StatusRequestTimeout, "wall_budget"
	case errors.Is(err, sim.ErrEventBudget):
		return http.StatusUnprocessableEntity, "event_budget"
	case errors.Is(err, sim.ErrDeadline):
		return http.StatusUnprocessableEntity, "sim_deadline"
	case errors.Is(err, sim.ErrNoProgress):
		return http.StatusInternalServerError, "no_progress"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "wall_budget"
	case errors.Is(err, sim.ErrCancelled), errors.Is(err, context.Canceled):
		return StatusClientClosed, "cancelled"
	case errors.As(err, &inv):
		return http.StatusInternalServerError, "invariant"
	case errors.As(err, &dead):
		return http.StatusInternalServerError, "deadlock"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// Sentinels for input failures so classify stays errors.Is-based.
var (
	errBadRequest = errors.New("bad request")
	errTooLarge   = errors.New("request too large")
	errNotFound   = errors.New("not found")
)

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

func tooLargef(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errTooLarge}, args...)...)
}

func notFoundf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errNotFound}, args...)...)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.adm.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// Stats is the /statz document. Served, Status, LatencyUS and ShedUS
// are folded from the observability plane's (op, outcome) families, so
// they agree with /metrics' shogun_requests_total by construction.
// Status is keyed by obs.OutcomeForStatus label (ok, shed, unavail,
// budget, client_gone, client_error, error); an outcome appears once a
// request with it has completed.
type Stats struct {
	Admission AdmissionStats        `json:"admission"`
	Graphs    CacheStats            `json:"graph_cache"`
	Schedules CacheStats            `json:"schedule_cache"`
	Served    int64                 `json:"served"`
	Panics    int64                 `json:"contained_panics"`
	Status    map[string]int64      `json:"status"`
	LatencyUS telemetry.HistSummary `json:"latency_us"`      // outcome ok
	ShedUS    telemetry.HistSummary `json:"shed_latency_us"` // outcome shed
	QueueUS   telemetry.HistSummary `json:"queue_wait_us"`
}

// StatsSnapshot returns the daemon's live counters (also served at
// /statz).
func (s *Server) StatsSnapshot() Stats {
	st := Stats{
		Admission: s.adm.Stats(),
		Graphs:    s.graphs.Stats(),
		Schedules: s.scheds.Stats(),
		Panics:    s.panicked.Load(),
		Status:    map[string]int64{},
		QueueUS:   s.queueWait.Summary(),
	}
	ok, shed := telemetry.NewHistogram(), telemetry.NewHistogram()
	for _, f := range s.plane.Families() {
		n := f.Hist.Count()
		st.Served += n
		st.Status[f.Outcome] += n
		switch f.Outcome {
		case "ok":
			ok.Merge(f.Hist)
		case "shed":
			shed.Merge(f.Hist)
		}
	}
	st.LatencyUS, st.ShedUS = ok.Summary(), shed.Summary()
	return st
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.StatsSnapshot()) //nolint:errcheck // client-side failure
}

func (s *Server) writeError(w http.ResponseWriter, op Op, sp *obs.Span, err error) {
	status, kind := classify(err)
	body := ErrorBody{Error: err.Error(), Kind: kind}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		body.RetryAfterS = int64(s.retryAfter() / time.Second)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", body.RetryAfterS))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client-side failure
	s.logf("%s %d %s: %v", op, status, kind, err)
	// End last: it retires sp to the span pool, after which sp may be
	// re-issued to another request. Anything that could panic above runs
	// while the span is still live, so the handler's panic barrier ends
	// this request's span, never a stranger's.
	sp.End(status, kind, err.Error())
}

// retryAfter picks the hint for a 429/503: normally the EWMA backlog
// estimate, but once draining the backlog will never clear here — the
// honest hint is when this process will be gone and a replacement can
// answer (remaining drain time, at least 1s).
func (s *Server) retryAfter() time.Duration {
	if s.adm.Draining() {
		if until := s.drainUntil.Load(); until != 0 {
			if left := time.Until(time.Unix(0, until)); left > 0 {
				return left.Round(time.Second) + time.Second
			}
		}
		return time.Second
	}
	return s.adm.RetryAfter()
}

// handleQuery builds the handler for one query kind. The sequence is:
// parse (bounded body) → admit (bounded pool + queue, shed on overflow)
// → resolve graph/schedule through the shared cache → run under the
// per-request governor → respond. A panic anywhere below the barrier
// degrades to a 500 for this request only.
func (s *Server) handleQuery(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		arrived := time.Now()
		// The span opens in PhaseParse; every exit path below funnels
		// through writeError or the success epilogue. End retires the
		// span to the pool, so both paths End strictly last and the
		// epilogue nils sp — the panic barrier then cannot End a span
		// that was already pooled and possibly re-issued to another
		// request.
		sp := s.plane.Begin(string(op), r.Header.Get(obs.TraceHeader), arrived)
		trace := sp.TraceID()
		w.Header().Set(obs.TraceHeader, trace)
		defer func() {
			if p := recover(); p != nil {
				s.panicked.Add(1)
				err := fmt.Errorf("contained panic: %v", p)
				s.logf("panic serving %s: %v\n%s", op, p, debug.Stack())
				s.writeError(w, op, sp, &sim.InvariantError{
					Op: "serve: " + string(op), PanicValue: err, Stack: string(debug.Stack()),
				})
			}
		}()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, op, sp, badRequestf("use POST (got %s)", r.Method))
			return
		}
		req, err := s.parseRequest(w, r)
		if err != nil {
			s.writeError(w, op, sp, err)
			return
		}
		sp.SetBudget(req.Budget.MaxWallMS, req.Budget.MaxEvents)
		sp.To(obs.PhaseQueue)
		if err := s.adm.Acquire(r.Context()); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				err = fmt.Errorf("%w while queued (%v)", sim.ErrCancelled, err)
			}
			s.writeError(w, op, sp, err)
			return
		}
		admitted := time.Now()
		s.queueWait.Observe(admitted.Sub(arrived).Microseconds())
		defer func() { s.adm.Release(time.Since(admitted)) }()

		resp, err := s.execute(r.Context(), op, req, sp)
		if err != nil {
			s.writeError(w, op, sp, err)
			return
		}
		sp.To(obs.PhaseEncode)
		resp.Trace = trace
		ph := sp.BreakdownUS()
		resp.PhasesUS = &ph
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp) //nolint:errcheck // client-side failure
		s.logf("%s 200 %s/%s emb=%d queue=%dus run=%dus",
			op, resp.GraphKey, resp.Schedule, resp.Embeddings, ph.Queue, ph.Run)
		sp.End(http.StatusOK, "ok", "")
		sp = nil // pooled — the panic barrier must not see it again
	}
}

// parseRequest decodes the bounded JSON body.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*Request, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, badRequestf("body exceeds %d byte limit", tooBig.Limit)
		}
		return nil, badRequestf("malformed JSON body: %v", err)
	}
	if (req.Dataset == "") == (req.Graph == "") {
		return nil, badRequestf("exactly one of \"dataset\" or \"graph\" is required")
	}
	if (req.Pattern == "") == (req.PatternEdges == "") {
		return nil, badRequestf("exactly one of \"pattern\" or \"pattern_edges\" is required")
	}
	if req.Budget.MaxEvents < 0 || req.Budget.DeadlineCycles < 0 || req.Budget.MaxWallMS < 0 {
		return nil, badRequestf("budget values must be non-negative")
	}
	if err := checkShape(&req); err != nil {
		return nil, err
	}
	if _, err := cluster.ParseMode(req.Partition); err != nil {
		return nil, badRequestf("%v", err)
	}
	return &req, nil
}

// Machine-shape ceilings of a simulate request. cluster.New builds every
// chip and PE up front, so an unbounded shape is an unbounded
// allocation; checkShape refuses one before anything is built. They
// admit every shape the repository runs: 40 PEs in the PE-scaling sweep,
// 16 chips in the cluster sweep and the benchmark, width 16 in the
// ablation. DESIGN "Multi-chip scale-out" gives the largest admitted
// machine's measured footprint.
const (
	maxChips      = 16
	maxChipPEs    = 64
	maxMachinePEs = 256 // chips × PEs per chip
	maxWidth      = 32
)

// checkShape rejects a negative machine shape as a bad request and one
// over a ceiling as too large. A zero field takes its default (1 chip,
// the Table 3 chip's PEs), which is what the ceilings count.
func checkShape(req *Request) error {
	if req.Chips < 0 || req.PEs < 0 || req.Width < 0 {
		return badRequestf("chips, pes and width must be non-negative (got %d, %d, %d)", req.Chips, req.PEs, req.Width)
	}
	chips, pes := max(req.Chips, 1), req.PEs
	if pes == 0 {
		pes = accel.DefaultConfig(accel.SchemeShogun).NumPEs
	}
	if chips > maxChips || pes > maxChipPEs || chips*pes > maxMachinePEs || req.Width > maxWidth {
		return tooLargef("%d chips × %d PEs at width %d is over the limits of %d chips, %d PEs a chip, %d PEs a machine and width %d",
			chips, pes, req.Width, maxChips, maxChipPEs, maxMachinePEs, maxWidth)
	}
	return nil
}

// resolveGraph returns the request's graph through the shared cache.
func (s *Server) resolveGraph(req *Request) (cachedGraph, error) {
	if req.Dataset != "" {
		key := "dataset/" + req.Dataset
		return s.graphs.Get(key, func() (cachedGraph, int64, error) {
			g, err := datasets.Get(req.Dataset)
			if err != nil {
				return cachedGraph{}, 0, notFoundf("%v", err)
			}
			return cachedGraph{g, key}, graphBytes(g), nil
		})
	}
	sum := sha256.Sum256([]byte(req.Graph))
	// The full digest: a truncated key would let a birthday collision
	// serve one tenant's graph to another.
	key := "upload/" + hex.EncodeToString(sum[:])
	return s.graphs.Get(key, func() (cachedGraph, int64, error) {
		n, edges, err := graph.ParseEdgeList(strings.NewReader(req.Graph), uploadVertexCap(s.graphs.budget))
		if errors.Is(err, graph.ErrVertexCap) {
			return cachedGraph{}, 0, tooLargef("graph upload: %v", err)
		}
		if err != nil {
			return cachedGraph{}, 0, badRequestf("graph upload: %v", err)
		}
		if est := csrBytes(n, int64(len(edges))); est > s.graphs.budget {
			return cachedGraph{}, 0, tooLargef("graph upload: %d vertices and %d edges need about %d bytes, over the graph cache's budget of %d",
				n, len(edges), est, s.graphs.budget)
		}
		g, err := graph.New(n, edges)
		if err != nil {
			return cachedGraph{}, 0, badRequestf("graph upload: %v", err)
		}
		return cachedGraph{g, key}, graphBytes(g), nil
	})
}

// uploadVertexCap is the vertex cap of a graph upload: the smallest
// vertex count whose CSR offsets alone (graphBytes) overflow the graph
// cache's budget. ParseEdgeList refuses an upload that reaches it before
// anything is sized by the count.
func uploadVertexCap(graphBudget int64) int {
	return int(max(graphBudget/8, 1))
}

// graphBytes estimates a CSR graph's resident size (offsets are int64,
// neighbors int32 stored in both directions) plus a fixed overhead for
// the lazily built hub index that rides on cached graphs.
func graphBytes(g *graph.Graph) int64 {
	return csrBytes(g.NumVertices(), g.NumEdges())
}

// csrBytes is graphBytes for n vertices and m edges. Charged with an
// upload's parsed edge count, before graph.New drops self loops and
// duplicates, it is at least the built graph's graphBytes, so an upload
// the cache could never hold is refused before it is built.
func csrBytes(n int, m int64) int64 {
	const structOverhead = 512
	return int64(n+1)*8 + m*2*4 + structOverhead
}

// resolveSchedule returns the request's schedule through the shared
// cache. Named patterns honor the _v suffix convention; custom edge
// lists use the explicit induced flag.
func (s *Server) resolveSchedule(req *Request) (*pattern.Schedule, error) {
	var key string
	build := func() (pattern.Pattern, bool, error) {
		if req.Pattern != "" {
			p, err := pattern.ByName(req.Pattern)
			if err != nil {
				return pattern.Pattern{}, false, notFoundf("%v", err)
			}
			return p, req.Induced || strings.HasSuffix(req.Pattern, "_v"), nil
		}
		p, err := pattern.Parse("custom", req.PatternEdges)
		if err != nil {
			return pattern.Pattern{}, false, badRequestf("pattern_edges: %v", err)
		}
		return p, req.Induced, nil
	}
	if req.Pattern != "" {
		key = fmt.Sprintf("named/%s/induced=%t", req.Pattern, req.Induced)
	} else {
		key = fmt.Sprintf("custom/%s/induced=%t", req.PatternEdges, req.Induced)
	}
	return s.scheds.Get(key, func() (*pattern.Schedule, int64, error) {
		p, induced, err := build()
		if err != nil {
			return nil, 0, err
		}
		sched, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: induced})
		if err != nil {
			return nil, 0, badRequestf("schedule: %v", err)
		}
		const scheduleBytes = 4096 // schedules are small and flat
		return sched, scheduleBytes, nil
	})
}

// wallBudget resolves a request's effective wall-clock budget.
func (s *Server) wallBudget(b Budget) time.Duration {
	wall := s.cfg.DefaultWall
	if b.MaxWallMS > 0 {
		wall = time.Duration(b.MaxWallMS) * time.Millisecond
	}
	if wall > s.cfg.MaxWall {
		wall = s.cfg.MaxWall
	}
	return wall
}

// execute resolves inputs and runs one admitted query under its budget.
// Phase accounting: graph resolution (cache lookup or single-flight
// build), schedule resolution, then the governed run under pprof labels
// so CPU profiles attribute samples by endpoint and pattern.
func (s *Server) execute(reqCtx context.Context, op Op, req *Request, sp *obs.Span) (*Response, error) {
	sp.To(obs.PhaseGraph)
	cg, err := s.resolveGraph(req)
	if err != nil {
		return nil, err
	}
	sp.To(obs.PhaseSchedule)
	sched, err := s.resolveSchedule(req)
	if err != nil {
		return nil, err
	}
	sp.SetTarget(cg.key, sched.Name)
	sp.To(obs.PhaseRun)
	// The work context merges: the client connection (gone client stops
	// the query), the drain hard-cancel (a blown drain deadline stops
	// it), and the wall budget.
	ctx, cancel := context.WithTimeout(reqCtx, s.wallBudget(req.Budget))
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	resp := &Response{Op: op, GraphKey: cg.key, Schedule: sched.Name}
	run := func(ctx context.Context) error {
		switch op {
		case OpCount, OpMine:
			res, err := mine.ParallelCountContext(ctx, cg.g, sched, s.cfg.MinerWorkers)
			if err != nil {
				return s.refineCancel(ctx, reqCtx, err)
			}
			resp.Embeddings = res.Embeddings
			if op == OpMine {
				resp.Tasks = res.Tasks()
				resp.SetOpElements = res.SetOpElements
				resp.LinesPerTask = res.AvgIntermediateLinesPerTask()
			}
		case OpSimulate:
			res, err := s.simulate(ctx, req, cg.g, sched, sp)
			if err != nil {
				return s.refineCancel(ctx, reqCtx, err)
			}
			m := res.Machine()
			resp.Embeddings = m.Embeddings
			resp.Cycles = int64(m.Cycles)
			resp.SimTasks = m.Tasks + m.LeafTasks
			resp.IUUtil = m.IUUtil
			resp.L1HitRate = m.L1HitRate
			resp.Events = m.Events
			resp.Splits = m.Splits
			resp.Merges = m.Merges
			resp.Chips = res.Chips
			resp.Migrations = res.Migrations
			resp.MaxOccupancy = res.MaxOccupancy
			resp.MeanOccupancy = res.MeanOccupancy
		default:
			return badRequestf("unknown op %q", op)
		}
		return nil
	}
	if err := runLabeled(ctx, string(op), sched.Name, run); err != nil {
		return nil, err
	}
	return resp, nil
}

// runLabeled runs fn under pprof labels: CPU (and goroutine) profiles
// taken via /debug/pprof attribute the run's samples to its endpoint
// and pattern. The miner's worker goroutines inherit the labels.
func runLabeled(ctx context.Context, endpoint, pattern string, fn func(context.Context) error) error {
	var err error
	pprof.Do(ctx, pprof.Labels("endpoint", endpoint, "pattern", pattern), func(ctx context.Context) {
		err = fn(ctx)
	})
	return err
}

// refineCancel sharpens a generic cancellation into its true cause: a
// tripped wall budget (deadline on the work context) or the drain
// hard-cancel, which would otherwise both surface as ErrCancelled.
func (s *Server) refineCancel(workCtx, reqCtx context.Context, err error) error {
	if !errors.Is(err, sim.ErrCancelled) && !errors.Is(err, context.Canceled) {
		return err
	}
	switch {
	case errors.Is(workCtx.Err(), context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", sim.ErrWallBudget, err)
	case s.hardCtx.Err() != nil && reqCtx.Err() == nil:
		return fmt.Errorf("%w: cancelled by drain (%v)", ErrDraining, err)
	default:
		return err
	}
}

// simConfig builds the simulated machine's config from the request's
// shape knobs and clamped budgets: req.Chips copies (default 1) of the
// chip, root space split by the request's partition.
func (s *Server) simConfig(req *Request) cluster.Config {
	scheme := accel.Scheme(req.Scheme)
	if req.Scheme == "" {
		scheme = accel.SchemeShogun
	}
	cfg := cluster.DefaultConfig(scheme, max(req.Chips, 1))
	cfg.Partition = cluster.Mode(req.Partition)
	cfg.PartitionSeed = req.PartitionSeed
	chip := &cfg.Chip
	if req.PEs > 0 {
		chip.NumPEs = req.PEs
	}
	if req.Width > 0 {
		chip.SetWidth(req.Width)
	}
	chip.EnableSplitting = req.Split
	chip.EnableMerging = req.Merge
	chip.MaxEvents = clampBudget(req.Budget.MaxEvents, s.cfg.MaxEvents)
	if req.Budget.DeadlineCycles > 0 {
		chip.Deadline = sim.Time(req.Budget.DeadlineCycles)
	}
	if s.sampleEvery > 0 {
		chip.SampleEvery = sim.Time(s.sampleEvery)
	}
	return cfg
}

// simulate runs the request's machine under its clamped budgets. One
// chip is the 1-chip cluster; cross-chip conservation identities verify
// on every run.
func (s *Server) simulate(ctx context.Context, req *Request, g *graph.Graph, sched *pattern.Schedule, sp *obs.Span) (*cluster.Result, error) {
	cfg := s.simConfig(req)
	cl, err := cluster.New(g, sched, cfg)
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if s.cfg.OnAccel != nil {
		for _, chip := range cl.Chips() {
			s.cfg.OnAccel(chip)
		}
	}
	if smp := cl.Sampler(); smp != nil {
		sp.SetProgress(func() map[string]int64 { return liveProgress(smp) })
	}
	// The governor snapshot rides on the slow-request log: by the time
	// the log renders it the run has finished, so reading the engine is
	// safe.
	eng := cl.Engine()
	sp.SetSnapshot(func() string { return eng.Snapshot().String() })
	return cl.RunContext(ctx)
}

// liveProgress joins a live /v1/requests/{id} view with a running
// machine: the end cycle, the epoch count and the last value of four
// gauges, read from its one sampler without copying the series. The
// sampler is mutex-guarded, so another goroutine may read it while the
// engine keeps sampling.
func liveProgress(smp *telemetry.Sampler) map[string]int64 {
	cycle, epochs := smp.End()
	out := make(map[string]int64, 8)
	out["cycle"], out["epochs"] = cycle, int64(epochs)
	for _, name := range [...]string{
		"engine/events", "tasks/executed", "dram/queue", "noc/inflight",
	} {
		if v, ok := smp.Last(name); ok {
			out[name] = v
		}
	}
	return out
}

// clampBudget applies "may tighten, may not exceed": zero means take
// the ceiling, nonzero is capped by it.
func clampBudget(requested, ceiling int64) int64 {
	switch {
	case ceiling <= 0:
		return requested
	case requested <= 0 || requested > ceiling:
		return ceiling
	default:
		return requested
	}
}
