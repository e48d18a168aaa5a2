package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"shogun/internal/accel"
	"shogun/internal/datasets"
	"shogun/internal/mine"
	"shogun/internal/pattern"
)

// testServer boots a daemon on a loopback port and tears it down with
// the test. The returned base URL has no trailing slash.
func testServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	})
	return s, "http://" + s.Addr()
}

// post sends a JSON body and returns status, parsed Response (2xx) and
// parsed ErrorBody (otherwise).
func post(t *testing.T, url string, body any) (int, *Response, *ErrorBody, http.Header) {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		var r Response
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatalf("bad 2xx body %q: %v", raw, err)
		}
		return resp.StatusCode, &r, nil, resp.Header
	}
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("bad error body (status %d) %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, nil, &e, resp.Header
}

// golden computes the software-miner truth for a dataset/pattern pair.
func golden(t *testing.T, dataset, pat string) int64 {
	t.Helper()
	g, err := datasets.Get(dataset)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pattern.ByName(pat)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: strings.HasSuffix(pat, "_v")})
	if err != nil {
		t.Fatal(err)
	}
	return mine.Count(g, sched)
}

func TestServeCountMatchesMiner(t *testing.T) {
	_, base := testServer(t, Config{})
	want := golden(t, "wi", "tc")
	status, r, _, _ := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if r.Embeddings != want {
		t.Fatalf("embeddings=%d, want %d", r.Embeddings, want)
	}
	if r.GraphKey != "dataset/wi" || r.Op != OpCount {
		t.Fatalf("response metadata: %+v", r)
	}
}

func TestServeMineReturnsStats(t *testing.T) {
	_, base := testServer(t, Config{})
	status, r, _, _ := post(t, base+"/v1/mine", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if r.Tasks <= 0 || r.Embeddings != golden(t, "wi", "tc") {
		t.Fatalf("mine stats: %+v", r)
	}
}

func TestServeSimulateMatchesMiner(t *testing.T) {
	_, base := testServer(t, Config{})
	want := golden(t, "wi", "tc")
	status, r, _, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc", Scheme: "shogun"})
	if status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if r.Embeddings != want {
		t.Fatalf("simulated embeddings=%d, want %d", r.Embeddings, want)
	}
	if r.Cycles <= 0 || r.Events <= 0 {
		t.Fatalf("simulation stats missing: %+v", r)
	}
}

func TestServeUploadedGraph(t *testing.T) {
	_, base := testServer(t, Config{})
	// K4 has 4 triangles.
	edges := "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
	status, r, _, _ := post(t, base+"/v1/count", Request{Graph: edges, Pattern: "tc"})
	if status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if r.Embeddings != 4 {
		t.Fatalf("K4 triangles=%d, want 4", r.Embeddings)
	}
	// Content-addressed by the full sha256 of the upload text.
	sum := sha256.Sum256([]byte(edges))
	if want := "upload/" + hex.EncodeToString(sum[:]); r.GraphKey != want {
		t.Fatalf("graph key %q, want %q", r.GraphKey, want)
	}
}

func TestServeCustomPatternEdges(t *testing.T) {
	_, base := testServer(t, Config{})
	want := golden(t, "wi", "tc")
	status, r, _, _ := post(t, base+"/v1/count", Request{Dataset: "wi", PatternEdges: "0-1,1-2,2-0"})
	if status != http.StatusOK {
		t.Fatalf("status=%d", status)
	}
	if r.Embeddings != want {
		t.Fatalf("custom triangle=%d, want %d", r.Embeddings, want)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, base := testServer(t, Config{})
	cases := []struct {
		name string
		body any
		kind string
	}{
		{"malformed json", `{"dataset": `, "bad_request"},
		{"unknown field", `{"dataset":"wi","pattern":"tc","bogus":1}`, "bad_request"},
		{"both graph sources", Request{Dataset: "wi", Graph: "0 1\n", Pattern: "tc"}, "bad_request"},
		{"no graph source", Request{Pattern: "tc"}, "bad_request"},
		{"both patterns", Request{Dataset: "wi", Pattern: "tc", PatternEdges: "0-1"}, "bad_request"},
		{"no pattern", Request{Dataset: "wi"}, "bad_request"},
		{"negative budget", `{"dataset":"wi","pattern":"tc","budget":{"max_events":-1}}`, "bad_request"},
		{"bad edge list", Request{Graph: "zero one\n", Pattern: "tc"}, "bad_request"},
		{"bad pattern edges", Request{Dataset: "wi", PatternEdges: "nope"}, "bad_request"},
	}
	for _, tc := range cases {
		status, _, e, _ := post(t, base+"/v1/count", tc.body)
		if status != http.StatusBadRequest || e.Kind != tc.kind {
			t.Errorf("%s: status=%d kind=%q, want 400 %q (err=%q)", tc.name, status, e.Kind, tc.kind, e.Error)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}

// TestServeUploadVertexCap sends hostile uploads whose vertex count, from
// one line, would make graph.Build allocate tens of GiB: each gets a typed
// 413 before anything is sized by the count, and the daemon stays ready.
// A graph just under the cap derived from the cache budget still counts.
func TestServeUploadVertexCap(t *testing.T) {
	s, base := testServer(t, Config{CacheBytes: 1 << 20})
	vertexCap := uploadVertexCap(s.graphs.budget)
	if want := int(s.graphs.budget / 8); vertexCap != want {
		t.Fatalf("vertex cap %d, want %d (graph cache budget / 8)", vertexCap, want)
	}
	cases := []struct {
		name   string
		graph  string
		status int
	}{
		{"one huge id", "0 2147483646\n", http.StatusRequestEntityTooLarge},
		{"huge header", "# vertices=2000000000\n0 1\n", http.StatusRequestEntityTooLarge},
		{"header at the cap", fmt.Sprintf("# vertices=%d\n0 1\n", vertexCap), http.StatusRequestEntityTooLarge},
		{"id at the cap", fmt.Sprintf("0 %d\n", vertexCap-1), http.StatusRequestEntityTooLarge},
		{"just under the cap", fmt.Sprintf("# vertices=%d\n0 1\n1 2\n2 0\n", vertexCap-1), http.StatusOK},
	}
	for _, tc := range cases {
		status, r, e, _ := post(t, base+"/v1/count", Request{Graph: tc.graph, Pattern: "tc"})
		switch {
		case status != tc.status:
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.status)
		case status == http.StatusOK && r.Embeddings != 1:
			t.Errorf("%s: %d triangles, want 1", tc.name, r.Embeddings)
		case status != http.StatusOK && (e.Kind != "too_large" || e.Error == ""):
			t.Errorf("%s: kind %q error %q, want too_large", tc.name, e.Kind, e.Error)
		}
	}
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d after hostile uploads", resp.StatusCode)
	}
}

func TestServeNotFound(t *testing.T) {
	_, base := testServer(t, Config{})
	status, _, e, _ := post(t, base+"/v1/count", Request{Dataset: "nope", Pattern: "tc"})
	if status != http.StatusNotFound || e.Kind != "not_found" {
		t.Fatalf("unknown dataset: status=%d kind=%q", status, e.Kind)
	}
	status, _, e, _ = post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "dodecahedron"})
	if status != http.StatusNotFound || e.Kind != "not_found" {
		t.Fatalf("unknown pattern: status=%d kind=%q", status, e.Kind)
	}
}

func TestServeMethodNotAllowed(t *testing.T) {
	_, base := testServer(t, Config{})
	resp, err := http.Get(base + "/v1/count")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/count = %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow=%q", allow)
	}
}

func TestServeEventBudget422(t *testing.T) {
	_, base := testServer(t, Config{})
	status, _, e, _ := post(t, base+"/v1/simulate",
		Request{Dataset: "wi", Pattern: "tc", Budget: Budget{MaxEvents: 1}})
	if status != http.StatusUnprocessableEntity || e.Kind != "event_budget" {
		t.Fatalf("status=%d kind=%q err=%q, want 422 event_budget", status, e.Kind, e.Error)
	}
}

func TestServeSimDeadline422(t *testing.T) {
	_, base := testServer(t, Config{})
	status, _, e, _ := post(t, base+"/v1/simulate",
		Request{Dataset: "wi", Pattern: "tc", Budget: Budget{DeadlineCycles: 1}})
	if status != http.StatusUnprocessableEntity || e.Kind != "sim_deadline" {
		t.Fatalf("status=%d kind=%q err=%q, want 422 sim_deadline", status, e.Kind, e.Error)
	}
}

func TestServeWallBudget408(t *testing.T) {
	// OnAccel stalls the query past its own 50ms wall budget; the watchdog
	// cancellation must be reported as a wall-budget 408, not a generic 499.
	_, base := testServer(t, Config{
		OnAccel: func(*accel.Accelerator) { time.Sleep(300 * time.Millisecond) },
	})
	status, _, e, _ := post(t, base+"/v1/simulate",
		Request{Dataset: "wi", Pattern: "tc", Budget: Budget{MaxWallMS: 50}})
	if status != http.StatusRequestTimeout || e.Kind != "wall_budget" {
		t.Fatalf("status=%d kind=%q err=%q, want 408 wall_budget", status, e.Kind, e.Error)
	}
}

func TestServeShedsWith429(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 8)
	s, base := testServer(t, Config{
		Workers:    1,
		QueueDepth: -1, // no wait queue: busy pool sheds instantly
		OnAccel: func(*accel.Accelerator) {
			entered <- struct{}{}
			<-hold
		},
	})
	blockedDone := make(chan int, 1)
	go func() {
		st, _, _, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc"})
		blockedDone <- st
	}()
	<-entered // the single worker slot is now held
	status, _, e, hdr := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusTooManyRequests || e.Kind != "overloaded" {
		t.Fatalf("status=%d kind=%q, want 429 overloaded", status, e.Kind)
	}
	if hdr.Get("Retry-After") == "" || e.RetryAfterS < 1 {
		t.Fatalf("429 missing Retry-After (header=%q body=%d)", hdr.Get("Retry-After"), e.RetryAfterS)
	}
	close(hold)
	if st := <-blockedDone; st != http.StatusOK {
		t.Fatalf("blocked request finished with %d", st)
	}
	if st := s.StatsSnapshot(); st.Admission.Shed != 1 {
		t.Fatalf("shed counter=%d, want 1", st.Admission.Shed)
	}
}

func TestServePanicIsolation(t *testing.T) {
	// A panicking request gets a 500; the daemon (and its worker slot)
	// survives to serve the next request correctly.
	var arm bool
	s, base := testServer(t, Config{
		Workers: 1,
		OnAccel: func(*accel.Accelerator) {
			if arm {
				arm = false
				panic("injected fault")
			}
		},
	})
	arm = true
	status, _, e, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status=%d kind=%q", status, e.Kind)
	}
	if !strings.Contains(e.Error, "injected fault") {
		t.Fatalf("500 body does not name the panic: %q", e.Error)
	}
	want := golden(t, "wi", "tc")
	status, r, _, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusOK || r.Embeddings != want {
		t.Fatalf("daemon did not survive the panic: status=%d resp=%+v", status, r)
	}
	if st := s.StatsSnapshot(); st.Panics != 1 {
		t.Fatalf("contained-panic counter=%d, want 1", st.Panics)
	}
}

func TestServeHealthAndReady(t *testing.T) {
	_, base := testServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}
}

func TestServeStatz(t *testing.T) {
	_, base := testServer(t, Config{})
	post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	if st.Served < 1 || st.Status["ok"] < 1 || st.Admission.Workers <= 0 {
		t.Fatalf("statz counters: %+v", st)
	}
}

func TestServeDrainSequence(t *testing.T) {
	// During NotReadyDelay the daemon must still answer (readyz 503,
	// query 503 draining) before the listener closes; afterwards Serve
	// returns nil and new connections are refused.
	s, err := New(Config{Addr: "127.0.0.1:0", NotReadyDelay: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(3 * time.Second) }()

	// Poll readyz until the drain flips it; the listener is still open.
	deadline := time.Now().Add(2 * time.Second)
	sawNotReady := false
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener closed before we caught the window
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawNotReady = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawNotReady {
		t.Fatal("never observed readyz=503 during the not-ready window")
	}
	// A query inside the window is refused as draining, not shed.
	status, _, e, hdr := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusServiceUnavailable || e.Kind != "draining" {
		t.Fatalf("query during drain: status=%d kind=%q", status, e.Kind)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 draining missing Retry-After")
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

func TestServeDrainFailsQueuedWaiters(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	s, err := New(Config{
		Addr:    "127.0.0.1:0",
		Workers: 1,
		OnAccel: func(*accel.Accelerator) {
			entered <- struct{}{}
			<-hold
		},
		// The released simulation must finish before the drain's
		// hard-cancel (4s in). The epoch sampler's per-access histogram
		// updates double a served simulation's time under the race
		// detector, which would push it past that point; sampling is
		// not what this test is about.
		Obs: &ObsConfig{SampleEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	inflightDone := make(chan int, 1)
	go func() {
		st, _, _, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc"})
		inflightDone <- st
	}()
	<-entered
	queuedDone := make(chan *ErrorBody, 1)
	queuedStatus := make(chan int, 1)
	go func() {
		st, _, e, _ := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
		queuedStatus <- st
		queuedDone <- e
	}()
	waitFor(t, func() bool { return s.StatsSnapshot().Admission.Waiting == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(5 * time.Second) }()
	// The queued waiter fails with 503 draining while the in-flight
	// request keeps running.
	if st := <-queuedStatus; st != http.StatusServiceUnavailable {
		t.Fatalf("queued request during drain: %d", st)
	}
	if e := <-queuedDone; e.Kind != "draining" {
		t.Fatalf("queued request kind=%q", e.Kind)
	}
	close(hold) // let the in-flight request finish inside the deadline
	if st := <-inflightDone; st != http.StatusOK {
		t.Fatalf("in-flight request finished with %d", st)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestServeCacheReuse(t *testing.T) {
	s, base := testServer(t, Config{})
	for i := 0; i < 3; i++ {
		status, _, _, _ := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
		if status != http.StatusOK {
			t.Fatalf("round %d: status=%d", i, status)
		}
	}
	st := s.StatsSnapshot()
	if st.Graphs.Hits < 2 || st.Graphs.Misses != 1 {
		t.Fatalf("graph cache not reused: %+v", st.Graphs)
	}
	if st.Schedules.Hits < 2 || st.Schedules.Misses != 1 {
		t.Fatalf("schedule cache not reused: %+v", st.Schedules)
	}
}

func TestServeConfigValidation(t *testing.T) {
	// An unusable address must fail fast, not at first request.
	if _, err := New(Config{Addr: "256.0.0.1:99999"}); err == nil {
		t.Fatal("New accepted an unusable address")
	}
}
