package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shogun/internal/accel"
)

// TestSaturationShedsNotDegrades is the in-repo version of the
// BENCH_0007 experiment: under 2× the pool's capacity the daemon must
// shed the excess with fast 429s while the latency of *accepted*
// requests stays close to the uncontended level — overload shows up as
// refusals, not as a latency collapse for everyone.
func TestSaturationShedsNotDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation sweep skipped in -short mode")
	}
	// A fixed stall pins the service time, so capacity is known by
	// construction: 2 workers × (1 / 25ms) = 80 rps. The graph is a
	// trivial upload (K4) so the simulation itself costs microseconds
	// and the stall dominates — the test measures the admission gate,
	// not the simulator.
	const stall = 25 * time.Millisecond
	const workers = 2
	capacity := float64(workers) * float64(time.Second) / float64(stall)
	_, base := testServer(t, Config{
		Workers:    workers,
		QueueDepth: 2,
		OnAccel:    func(*accel.Accelerator) { time.Sleep(stall) },
	})
	body, err := json.Marshal(Request{
		Graph:   "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
		Pattern: "tc",
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(qps float64) *LoadReport {
		t.Helper()
		rep, err := RunLoad(context.Background(), LoadOptions{
			URL:      base + "/v1/simulate",
			Body:     body,
			QPS:      qps,
			Duration: 2 * time.Second,
			Timeout:  10 * time.Second,
		})
		if err != nil {
			t.Fatalf("RunLoad(%g): %v", qps, err)
		}
		t.Logf("%s", rep)
		return rep
	}

	low := run(capacity / 2) // comfortably under the knee
	high := run(2 * capacity)

	if low.Accepted == 0 || high.Accepted == 0 {
		t.Fatalf("no accepted requests (low=%d high=%d)", low.Accepted, high.Accepted)
	}
	if low.Shed > low.Sent/10 {
		t.Fatalf("shedding below capacity: %d/%d shed", low.Shed, low.Sent)
	}
	if high.Shed == 0 {
		t.Fatal("no shedding at 2× capacity: the admission gate is not bounding load")
	}
	for emb := range low.Embeddings {
		if _, ok := high.Embeddings[emb]; len(high.Embeddings) > 0 && !ok {
			t.Fatalf("accepted responses disagree across levels: %v vs %v",
				low.Embeddings, high.Embeddings)
		}
	}
	// The acceptance bar: p99 of accepted requests at 2× load within 2×
	// of the uncontended p99 (slack for scheduler noise on small
	// samples). Queueing is bounded by QueueDepth, so accepted latency
	// is bounded by (queue+1) service times regardless of offered load.
	limit := 2*low.Latency.P99 + (50 * time.Millisecond).Microseconds()
	if high.Latency.P99 > limit {
		t.Fatalf("accepted p99 degraded under overload: %dµs at 2× vs %dµs at ½× (limit %dµs)",
			high.Latency.P99, low.Latency.P99, limit)
	}
	// Sheds must be fast — faster than service: that is the point.
	if high.ShedLatency.P99 > low.Latency.P50 {
		t.Fatalf("shed p99 (%dµs) slower than uncontended p50 (%dµs): 429s are not cheap",
			high.ShedLatency.P99, low.Latency.P50)
	}
	if rep := high; rep.Failed > 0 {
		t.Fatalf("%d untyped failures under overload: %+v", rep.Failed, rep.StatusCounts)
	}
}

// TestLoadReportVerification pins the generator's bookkeeping on a tiny
// run: offered ≈ qps·duration, and every outcome lands in exactly one
// bucket.
func TestLoadReportBookkeeping(t *testing.T) {
	_, base := testServer(t, Config{})
	body, _ := json.Marshal(Request{Dataset: "wi", Pattern: "tc"})
	rep, err := RunLoad(context.Background(), LoadOptions{
		URL: base + "/v1/count", Body: body, QPS: 50, Duration: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered == 0 || rep.Sent != rep.Offered-rep.Dropped {
		t.Fatalf("offered/sent/dropped inconsistent: %+v", rep)
	}
	sum := rep.Accepted + rep.Shed + rep.Unavail + rep.Budgeted + rep.Failed
	if sum != rep.Sent {
		t.Fatalf("outcome buckets (%d) do not sum to sent (%d): %+v", sum, rep.Sent, rep)
	}
	if rep.Accepted == 0 || rep.StatusCounts[http.StatusOK] != rep.Accepted {
		t.Fatalf("status counts: %+v", rep)
	}
	if len(rep.Embeddings) != 1 {
		t.Fatalf("embeddings not uniform: %v", rep.Embeddings)
	}
	if rep.Accepted > rep.Sent {
		t.Fatalf("accepted %d of %d sent", rep.Accepted, rep.Sent)
	}
}

// TestRunLoadValidation rejects nonsense options.
func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(context.Background(), LoadOptions{QPS: 0, Duration: time.Second}); err == nil {
		t.Fatal("QPS 0 accepted")
	}
	if _, err := RunLoad(context.Background(), LoadOptions{QPS: 10, Duration: 0}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// TestRunLoadKeepsTheSchedule drives RunLoad at twice the capacity of a
// deliberately slow handler that serves one request at a time. Offered
// load is the schedule's arrival count, QPS × duration, and each
// latency runs from its request's due time, so it carries all of the
// request's lag behind the schedule.
func TestRunLoadKeepsTheSchedule(t *testing.T) {
	const (
		service  = 20 * time.Millisecond
		qps      = 100
		duration = 300 * time.Millisecond
		n        = 30 // qps × duration
	)
	var (
		serial sync.Mutex // one request in service at a time
		mu     sync.Mutex // guards first and done
		first  time.Time  // the earliest arrival at the handler
		done   []time.Time
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		mu.Lock()
		if first.IsZero() || now.Before(first) {
			first = now
		}
		mu.Unlock()
		serial.Lock()
		time.Sleep(service)
		mu.Lock()
		done = append(done, time.Now())
		mu.Unlock()
		serial.Unlock()
		w.Write([]byte(`{"embeddings":7}`)) //nolint:errcheck
	}))
	defer srv.Close()
	rep, err := RunLoad(context.Background(), LoadOptions{URL: srv.URL, QPS: qps, Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered != n || rep.Sent != n || rep.Accepted != n || rep.Embeddings[7] != n {
		t.Fatalf("offered %d, sent %d, accepted %d, embeddings %v; want %d of each", rep.Offered, rep.Sent, rep.Accepted, rep.Embeddings, n)
	}
	// Arrival i is due at start + i/qps, and the generator starts before
	// any request reaches the handler, so due_i ≤ first + i/qps and the
	// latencies sum to at least Σ done − n·first − Σ i/qps. Each latency
	// is truncated to whole microseconds, hence the n µs of slack.
	var bound time.Duration
	for i, d := range done {
		bound += d.Sub(first) - time.Duration(i)*time.Second/qps
	}
	if got, want := rep.Latency.Sum, bound.Microseconds()-n; got < want {
		t.Fatalf("latencies sum to %d µs, want at least %d µs: they miss the lag behind the schedule", got, want)
	}
	t.Logf("%s (latency sum %d µs, bound %d µs)", rep, rep.Latency.Sum, bound.Microseconds())
}
