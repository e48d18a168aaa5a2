package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/serve"
)

// TestExpectedCountSingleFlight pins the stampede fix: many concurrent
// cells asking for the same (graph, schedule) golden count must trigger
// exactly one mine.
func TestExpectedCountSingleFlight(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 31)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	before := atomic.LoadInt64(&countComputes)
	const callers = 32
	vals := make([]int64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i] = expectedCount(g, s, 2)
		}(i)
	}
	wg.Wait()
	if got := atomic.LoadInt64(&countComputes) - before; got != 1 {
		t.Fatalf("expectedCount mined %d times for one key, want 1", got)
	}
	for i := 1; i < callers; i++ {
		if vals[i] != vals[0] {
			t.Fatalf("inconsistent cached counts: %d vs %d", vals[i], vals[0])
		}
	}
	// A different schedule over the same graph is a distinct key.
	s2, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	expectedCount(g, s2, 2)
	if got := atomic.LoadInt64(&countComputes) - before; got != 2 {
		t.Fatalf("second key mined %d times total, want 2", got)
	}
	// Repeat calls stay cached.
	expectedCount(g, s, 2)
	expectedCount(g, s2, 2)
	if got := atomic.LoadInt64(&countComputes) - before; got != 2 {
		t.Fatalf("cache re-mined: %d computes, want 2", got)
	}
}

// TestExpectedCountEvictionStaysCorrect shrinks the golden cache to two
// entries and cycles three keys through it: every lookup must return
// the correct count whether it was cached, evicted-and-recomputed, or
// fresh — the memory bound trades time, never correctness.
func TestExpectedCountEvictionStaysCorrect(t *testing.T) {
	saved := countCache
	countCache = serve.NewCache[int64](2 * countEntryBytes)
	defer func() { countCache = saved }()

	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 31)
	scheds := make([]*pattern.Schedule, 0, 3)
	for _, p := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle()} {
		s, err := pattern.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, s)
	}
	// Ground truth, straight from the miner (bypassing the cache).
	want := make([]int64, len(scheds))
	for i, s := range scheds {
		want[i] = mine.ParallelCount(g, s, 2).Embeddings
	}

	before := atomic.LoadInt64(&countComputes)
	for round := 0; round < 3; round++ {
		for i, s := range scheds {
			if got := expectedCount(g, s, 2); got != want[i] {
				t.Fatalf("round %d, schedule %s: expectedCount=%d, want %d (stale entry?)",
					round, s.Name, got, want[i])
			}
		}
	}
	computes := atomic.LoadInt64(&countComputes) - before
	// Three keys through a two-slot cache: at least one eviction forces
	// a recompute (>3), and the cache never exceeds its budget.
	if computes <= 3 {
		t.Fatalf("no recompute after eviction: %d computes for 9 lookups over 3 keys", computes)
	}
	if used := countCache.Used(); used > 2*countEntryBytes {
		t.Fatalf("golden cache over budget: %d bytes", used)
	}
	if st := countCache.Stats(); st.Evictions == 0 {
		t.Fatalf("three keys in a two-slot cache evicted nothing: %+v", st)
	}
}

// TestCellTraceAndMetricsDigest runs one cell with TraceDir and Metrics
// set: a valid Chrome trace file must appear (named after the cell key)
// and the metrics digest must reach the log.
func TestCellTraceAndMetricsDigest(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 31)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var log bytes.Buffer
	o := Options{Quick: true, TraceDir: dir, Metrics: true, Log: &log}
	grid, err := runCells(o, []cell{{"rmat/tc/shogun", g, s, accel.DefaultConfig(accel.SchemeShogun)}})
	if err != nil {
		t.Fatal(err)
	}
	if f := grid.Failures(); len(f) != 0 {
		t.Fatalf("cell failed: %v", f)
	}
	b, err := os.ReadFile(filepath.Join(dir, "rmat_tc_shogun.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	if !strings.Contains(log.String(), "invariants OK") {
		t.Fatalf("metrics digest missing from log:\n%s", log.String())
	}
}
