package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shogun/internal/accel"
	"shogun/internal/cluster"
	"shogun/internal/gen"
	"shogun/internal/obs"
	"shogun/internal/pattern"
	"shogun/internal/sim/simtest"
)

// syncBuffer is a goroutine-safe bytes.Buffer: handler goroutines append
// log lines while the test (and the drain path) reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestServeObsEndToEnd drives one traced request through a daemon with
// the observability plane on and checks every surface: trace header
// propagation, the response's phase attribution, exact phase
// conservation on the completed span, the /metrics exposition and the
// /v1/requests inspection endpoints.
func TestServeObsEndToEnd(t *testing.T) {
	s, base := testServer(t, Config{Obs: &ObsConfig{SampleEvery: -1}})

	req, err := http.NewRequest(http.MethodPost, base+"/v1/count",
		strings.NewReader(`{"dataset":"wi","pattern":"tc"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "caller-trace-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "caller-trace-7" {
		t.Fatalf("trace header not echoed: %q", got)
	}
	var body Response
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Trace != "caller-trace-7" {
		t.Fatalf("response trace %q, want caller-trace-7", body.Trace)
	}
	if body.PhasesUS == nil {
		t.Fatal("2xx response missing phases_us attribution")
	}
	if body.PhasesUS.Run <= 0 {
		t.Fatalf("run phase not attributed: %+v", *body.PhasesUS)
	}

	// The completed span's ns-resolution attribution is conservative:
	// phases sum to wall exactly (the acceptance bound is 1%; the
	// telescoping design gives 0).
	recent := s.plane.Recent()
	if len(recent) == 0 {
		t.Fatal("no completed span in the ring")
	}
	v := recent[0]
	if v.Trace != "caller-trace-7" || !v.Done {
		t.Fatalf("ring head is not our request: %+v", v)
	}
	p := v.PhasesNS
	if sum := p.Parse + p.Queue + p.Graph + p.Schedule + p.Run + p.Encode; sum != v.WallNS {
		t.Fatalf("served request phases sum %dns != wall %dns", sum, v.WallNS)
	}

	// /metrics: exposition-format validity plus our request's family.
	status, page := getBody(t, base+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	checkExposition(t, string(page))
	for _, want := range []string{
		`shogun_requests_total{op="count",outcome="ok"} 1`,
		`shogun_request_duration_seconds_count{op="count",outcome="ok"} 1`,
		"shogun_queue_wait_seconds_bucket",
		`shogun_cache_hits_total{cache="graph"}`,
		"shogun_admission_workers",
		"shogun_inflight_requests 0",
		"shogun_draining 0",
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /v1/requests: the completed request is listed, newest first.
	status, raw = getBody(t, base+"/v1/requests")
	if status != http.StatusOK {
		t.Fatalf("/v1/requests status %d", status)
	}
	var pageDoc RequestsPage
	if err := json.Unmarshal(raw, &pageDoc); err != nil {
		t.Fatalf("/v1/requests not JSON: %v", err)
	}
	if len(pageDoc.Recent) == 0 || pageDoc.Recent[0].ID != v.ID {
		t.Fatalf("/v1/requests recent wrong: %+v", pageDoc.Recent)
	}

	// /v1/requests/{id}: detail view and Chrome export.
	status, raw = getBody(t, fmt.Sprintf("%s/v1/requests/%d", base, v.ID))
	if status != http.StatusOK {
		t.Fatalf("detail status %d", status)
	}
	var detail obs.SpanView
	if err := json.Unmarshal(raw, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.ID != v.ID || detail.Outcome != "ok" {
		t.Fatalf("detail view wrong: %+v", detail)
	}
	status, raw = getBody(t, fmt.Sprintf("%s/v1/requests/%d?format=chrome", base, v.ID))
	if status != http.StatusOK {
		t.Fatalf("chrome export status %d", status)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Fatalf("chrome export invalid (err=%v, events=%d)", err, len(chrome.TraceEvents))
	}

	// Error handling on the detail route.
	if status, _ := getBody(t, base+"/v1/requests/notanumber"); status != http.StatusBadRequest {
		t.Fatalf("bad id status %d, want 400", status)
	}
	if status, _ := getBody(t, base+"/v1/requests/999999"); status != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", status)
	}
}

// expositionSample matches `name{labels} value` / `name value` rows.
var expositionSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [-+0-9.eE]+(\+Inf)?$`)

// checkExposition validates Prometheus text-format invariants over a
// whole page: every line is a HELP/TYPE comment or a sample, every
// sample's family was declared, histogram buckets are cumulative and end
// with +Inf == _count.
func checkExposition(t *testing.T, page string) {
	t.Helper()
	declared := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(page, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Errorf("malformed comment %q", line)
				continue
			}
			declared[fields[2]] = true
		case strings.HasPrefix(line, "#"):
			t.Errorf("unknown comment %q", line)
		default:
			if !expositionSample.MatchString(strings.Replace(line, `le="+Inf"`, `le="Inf"`, 1)) {
				t.Errorf("malformed sample %q", line)
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if cut, ok := strings.CutSuffix(name, suffix); ok && declared[cut] {
					base = cut
					break
				}
			}
			if !declared[base] {
				t.Errorf("sample %q has no HELP/TYPE declaration", name)
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no families declared")
	}
}

// TestStatzMetricsAgree pins the single request taxonomy: on a daemon
// with the default observability config, a scripted mix of outcomes
// (200, 400, 404, 429 shed, 422 event budget) is counted once, by the
// plane, and /statz's per-outcome status counts and served total equal
// /metrics' shogun_requests_total summed over endpoints.
func TestStatzMetricsAgree(t *testing.T) {
	var block atomic.Bool
	hold := make(chan struct{})
	entered := make(chan struct{}, 1)
	_, base := testServer(t, Config{
		Workers:    1,
		QueueDepth: -1, // no wait queue: a busy pool sheds instantly
		OnAccel: func(*accel.Accelerator) {
			if block.CompareAndSwap(true, false) {
				entered <- struct{}{}
				<-hold
			}
		},
	})

	status, resp, _, hdr := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusOK || hdr.Get(obs.TraceHeader) == "" || resp.Trace == "" || resp.PhasesUS == nil {
		t.Fatalf("count: status %d, trace header %q, response %+v", status, hdr.Get(obs.TraceHeader), resp)
	}
	for _, c := range []struct {
		path string
		body any
		want int
	}{
		{"/v1/count", `{"dataset": `, http.StatusBadRequest},
		{"/v1/count", Request{Dataset: "nope", Pattern: "tc"}, http.StatusNotFound},
		{"/v1/simulate", Request{Dataset: "wi", Pattern: "tc", Budget: Budget{MaxEvents: 1}}, http.StatusUnprocessableEntity},
	} {
		if status, _, e, _ := post(t, base+c.path, c.body); status != c.want {
			t.Fatalf("%s %v: status %d (%+v), want %d", c.path, c.body, status, e, c.want)
		}
	}
	block.Store(true)
	held := make(chan int, 1)
	go func() {
		status, _, _, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc"})
		held <- status
	}()
	<-entered // the single worker slot is now held
	if status, _, _, _ := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"}); status != http.StatusTooManyRequests {
		t.Fatalf("count against a full pool: status %d, want 429", status)
	}
	close(hold)
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held simulate: status %d", status)
	}

	_, raw := getBody(t, base+"/statz")
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("statz decode: %v", err)
	}
	_, page := getBody(t, base+"/metrics")
	metrics := map[string]int64{}
	var total, servedTotal int64
	row := regexp.MustCompile(`^shogun_requests_total\{op="[^"]+",outcome="([^"]+)"\} (\d+)$`)
	for _, line := range strings.Split(string(page), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			n, _ := strconv.ParseInt(m[2], 10, 64)
			metrics[m[1]] += n
			total += n
		}
		if v, ok := strings.CutPrefix(line, "shogun_served_total "); ok {
			servedTotal, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	want := map[string]int64{"ok": 2, "client_error": 2, "budget": 1, "shed": 1}
	if !reflect.DeepEqual(st.Status, want) || !reflect.DeepEqual(metrics, want) {
		t.Fatalf("status counts: /statz %v, /metrics %v, want %v", st.Status, metrics, want)
	}
	if st.Served != total || servedTotal != total || total != 6 {
		t.Fatalf("served: /statz %d, shogun_served_total %d, sum of shogun_requests_total %d, want 6",
			st.Served, servedTotal, total)
	}
	if st.LatencyUS.Count != 2 || st.ShedUS.Count != 1 {
		t.Fatalf("latency summaries: ok count %d, shed count %d, want 2 and 1", st.LatencyUS.Count, st.ShedUS.Count)
	}
}

// TestServeDrainRetryAfterHint pins the drain-aware Retry-After
// satellite: a 503 refused during graceful drain advertises roughly the
// remaining drain time — "come back when this process is gone" — rather
// than the queue-backlog estimate used for 429s.
func TestServeDrainRetryAfterHint(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", NotReadyDelay: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	const drainBudget = 5 * time.Second
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(drainBudget) }()

	waitFor(t, func() bool { return s.adm.Draining() })
	status, _, e, hdr := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusServiceUnavailable || e.Kind != "draining" {
		t.Fatalf("drain refusal: status=%d kind=%q", status, e.Kind)
	}
	ra := hdr.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not integer seconds: %v", ra, err)
	}
	// The hint must cover the remaining drain (plus the 1s round-up) and
	// never exceed the whole budget + 1s.
	if secs < 1 || secs > int(drainBudget/time.Second)+1 {
		t.Fatalf("Retry-After %ds outside (0, %ds]", secs, int(drainBudget/time.Second)+1)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestServeDrainFlushesLogs pins the flush-on-drain satellite: the
// access and slow logs are buffered writers, and Drain must push the
// final request lines out before the process exits.
func TestServeDrainFlushesLogs(t *testing.T) {
	access := &syncBuffer{}
	slow := &syncBuffer{}
	s, err := New(Config{
		Addr: "127.0.0.1:0",
		Obs: &ObsConfig{
			AccessLog:     access,
			SlowLog:       slow,
			SlowThreshold: time.Nanosecond, // everything lands in both logs
			SampleEvery:   -1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	status, resp, _, _ := post(t, base+"/v1/count", Request{Dataset: "wi", Pattern: "tc"})
	if status != http.StatusOK {
		t.Fatalf("count status %d", status)
	}
	if err := s.Drain(2 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	for name, buf := range map[string]*syncBuffer{"access": access, "slow": slow} {
		got := buf.String()
		if !strings.Contains(got, resp.Trace) {
			t.Errorf("%s log missing the request after drain: %q", name, got)
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(strings.SplitN(got, "\n", 2)[0]), &doc); err != nil {
			t.Errorf("%s log line is not JSON: %v", name, err)
		}
	}
	if !strings.Contains(slow.String(), "snapshot") && !strings.Contains(slow.String(), "run_us") {
		t.Errorf("slow log lacks detail fields: %q", slow.String())
	}
}

// TestServeObsSimulateProgressJoin catches a simulate request mid-run
// and checks the epoch-sampler join: the /v1/requests/{id} detail view
// of an in-flight simulation carries live accelerator gauges.
func TestServeObsSimulateProgressJoin(t *testing.T) {
	s, base := testServer(t, Config{Obs: &ObsConfig{SampleEvery: 256}})

	type caught struct {
		view obs.SpanView
	}
	found := make(chan caught, 1)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range s.plane.Snapshot() {
				if v.Op != string(OpSimulate) || v.Phase != "run" {
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/v1/requests/%d", base, v.ID))
				if err != nil {
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var detail obs.SpanView
				if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &detail) != nil {
					continue
				}
				if !detail.Done && detail.Progress != nil {
					select {
					case found <- caught{detail}:
					default:
					}
					return
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	defer close(stop)

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		status, _, _, _ := post(t, base+"/v1/simulate", Request{Dataset: "wi", Pattern: "tc", Scheme: "shogun"})
		if status != http.StatusOK {
			t.Fatalf("simulate status %d", status)
		}
		select {
		case c := <-found:
			if _, ok := c.view.Progress["cycle"]; !ok {
				t.Fatalf("live progress missing cycle gauge: %v", c.view.Progress)
			}
			if c.view.Phase != "run" {
				t.Fatalf("caught view phase %q, want run", c.view.Phase)
			}
			return
		default:
		}
	}
	t.Fatal("never caught a simulate request in flight with live progress")
}

// TestLoadReportServerPhases checks the load generator's aggregation of
// the daemon's phases_us attribution: against an observability-on
// daemon every accepted response contributes to the per-phase
// histograms, and the run-phase count matches the accepted count.
func TestLoadReportServerPhases(t *testing.T) {
	_, base := testServer(t, Config{Obs: &ObsConfig{SampleEvery: -1}})
	body, err := json.Marshal(Request{Dataset: "wi", Pattern: "tc"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunLoad(t.Context(), LoadOptions{
		URL: base + "/v1/count", Body: body,
		QPS: 40, Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted == 0 {
		t.Fatalf("no accepted requests: %+v", rep)
	}
	if rep.ServerPhasesUS == nil {
		t.Fatal("ServerPhasesUS empty against an obs-on daemon")
	}
	for _, name := range []string{"parse", "queue", "graph", "schedule", "run", "encode"} {
		sum, ok := rep.ServerPhasesUS[name]
		if !ok {
			t.Fatalf("phase %q missing from ServerPhasesUS", name)
		}
		if sum.Count != rep.Accepted {
			t.Fatalf("phase %q count %d != accepted %d", name, sum.Count, rep.Accepted)
		}
	}
	if run := rep.ServerPhasesUS["run"]; run.Avg <= 0 {
		t.Fatalf("run phase average %v, want > 0", run.Avg)
	}
	if rep.Accepted <= 0 || rep.Accepted > rep.Sent || rep.Shed < 0 || rep.Shed > rep.Sent {
		t.Fatalf("accepted %d, shed %d of %d sent", rep.Accepted, rep.Shed, rep.Sent)
	}
}

// TestServeObsLifecycleAllocs pins the cost of the always-on request
// path: the whole obs hook sequence a request goes through allocates at
// most once (the span is pooled; the one allocation is the completed
// view's trace string kept in the recent ring).
func TestServeObsLifecycleAllocs(t *testing.T) {
	p := obs.NewPlane(obs.Options{})
	allocs := testing.AllocsPerRun(200, func() {
		obsRequestLifecycle(p)
	})
	if allocs > 1 {
		t.Fatalf("request lifecycle allocates %v/op, want <= 1", allocs)
	}
}

// obsRequestLifecycle replays every obs hook handleQuery/execute touch on
// a request, in order — the shared body of BenchmarkServeObsOn and the
// allocation pin.
func obsRequestLifecycle(p *obs.Plane) {
	sp := p.Begin("count", "", time.Time{})
	sp.SetBudget(1000, 0)
	sp.To(obs.PhaseQueue)
	sp.To(obs.PhaseGraph)
	sp.To(obs.PhaseSchedule)
	sp.SetTarget("wi", "tc")
	sp.To(obs.PhaseRun)
	sp.To(obs.PhaseEncode)
	_ = sp.BreakdownUS()
	sp.End(http.StatusOK, "ok", "")
}

// BenchmarkServeObsOn measures the per-request cost of the hooks against
// a live plane (span pool, registry, latency families; no log writers).
func BenchmarkServeObsOn(b *testing.B) {
	p := obs.NewPlane(obs.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obsRequestLifecycle(p)
	}
}

// TestLiveProgressReadsWithoutCopy reads the live progress of a sampled
// 3-chip machine after its run: the values equal the last epoch of the
// machine series, and one read allocates only its small map, not a copy
// of every column of the series.
func TestLiveProgressReadsWithoutCopy(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 1)
	sched, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(accel.SchemeShogun, 3)
	cfg.Chip.NumPEs = 4
	cfg.Chip.SampleEvery = 64
	cl, err := cluster.New(g, sched, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	smp := cl.Sampler()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := liveProgress(smp)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1024 {
		t.Errorf("one progress read allocated %d B, want < 1 KB", n)
	}
	ts := cl.Samples()
	want := map[string]int64{"cycle": ts.Cycles[len(ts.Cycles)-1], "epochs": int64(len(ts.Cycles))}
	for _, name := range []string{"engine/events", "tasks/executed", "dram/queue", "noc/inflight"} {
		col := simtest.Col(ts, name)
		if len(col) == 0 {
			t.Fatalf("machine series has no %s column", name)
		}
		want[name] = col[len(col)-1]
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("live progress %v, snapshot's last epoch %v", got, want)
	}
}
