package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// peek reports whether key has a ready cached value, without touching
// recency.
func peek[V any](c *Cache[V], key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && e.elem != nil
}

// TestCacheSingleFlight pins the stampede property: concurrent Gets for
// one missing key run the build exactly once and all observe its value.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache[int](1 << 20)
	var builds atomic.Int64
	gate := make(chan struct{})
	const callers = 32
	vals := make([]int, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.Get("k", func() (int, int64, error) {
				builds.Add(1)
				<-gate // hold the flight open so everyone piles on
				return 42, 8, nil
			})
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("built %d times for one key, want 1", n)
	}
	for i := range vals {
		if errs[i] != nil || vals[i] != 42 {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, vals[i], errs[i])
		}
	}
	st := c.Stats()
	// Callers that arrive after the flight lands count as hits, earlier
	// ones as misses — the split is scheduling-dependent, the sum is not.
	if st.Hits+st.Misses != callers || st.Entries != 1 || st.UsedBytes != 8 {
		t.Fatalf("stats after flight: %+v", st)
	}
	h0 := st.Hits
	if v, _ := c.Get("k", nil); v != 42 {
		t.Fatalf("cached value lost: %d", v)
	}
	if st := c.Stats(); st.Hits != h0+1 {
		t.Fatalf("hit not counted: %+v", st)
	}
}

// TestCacheEvictsLRU verifies the memory budget is a hard bound and the
// least-recently-used entry goes first.
func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache[string](100)
	mk := func(k string, size int64) {
		t.Helper()
		if _, err := c.Get(k, func() (string, int64, error) { return "v" + k, size, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 40)
	mk("b", 40)
	// Touch a so b is the LRU victim.
	if _, err := c.Get("a", nil); err != nil {
		t.Fatal(err)
	}
	mk("c", 40) // 120 > 100: evicts b
	if !peek(c, "a") || peek(c, "b") || !peek(c, "c") {
		t.Fatalf("want {a,c} resident, b evicted; have a=%t b=%t c=%t", peek(c, "a"), peek(c, "b"), peek(c, "c"))
	}
	if used := c.Stats().UsedBytes; used != 80 {
		t.Fatalf("used=%d, want 80", used)
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions=%d, want 1", st.Evictions)
	}
	// Re-Get of the evicted key recomputes — no stale value, fresh build.
	var rebuilt bool
	v, err := c.Get("b", func() (string, int64, error) { rebuilt = true; return "vb2", 10, nil })
	if err != nil || !rebuilt || v != "vb2" {
		t.Fatalf("evicted key not rebuilt: v=%q rebuilt=%t err=%v", v, rebuilt, err)
	}
}

// TestCacheOversizeNotRetained: an entry larger than the whole budget is
// returned but never resident, keeping the bound hard.
func TestCacheOversizeNotRetained(t *testing.T) {
	c := NewCache[string](100)
	v, err := c.Get("big", func() (string, int64, error) { return "huge", 1000, nil })
	if err != nil || v != "huge" {
		t.Fatalf("oversize Get = (%q, %v)", v, err)
	}
	if peek(c, "big") || c.Stats().UsedBytes != 0 {
		t.Fatalf("oversize entry retained: used=%d", c.Stats().UsedBytes)
	}
	if st := c.Stats(); st.Oversize != 1 {
		t.Fatalf("oversize counter=%d, want 1", st.Oversize)
	}
}

// TestCacheErrorNotCached: a failed build reaches every waiter of that
// flight and the key stays uncached (the next Get retries).
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache[int](100)
	boom := errors.New("boom")
	if _, err := c.Get("k", func() (int, int64, error) { return 0, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if peek(c, "k") {
		t.Fatal("failed build cached")
	}
	v, err := c.Get("k", func() (int, int64, error) { return 7, 1, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after error = (%d, %v), want (7, nil)", v, err)
	}
	if st := c.Stats(); st.Errors != 1 {
		t.Fatalf("errors=%d, want 1", st.Errors)
	}
}

// TestCachePanicUnblocksWaiters: a panicking build must not strand
// concurrent waiters or poison the key.
func TestCachePanicUnblocksWaiters(t *testing.T) {
	c := NewCache[int](100)
	entered := make(chan struct{})
	panicked := make(chan any, 1)
	waiterDone := make(chan error, 1)
	go func() {
		defer func() { panicked <- recover() }() // the builder re-panics
		c.Get("k", func() (int, int64, error) {  //nolint:errcheck
			close(entered)
			// A joiner bumps Misses before parking on the ready channel,
			// so panicking only after Misses reaches 2 guarantees the
			// waiter below is committed to this flight.
			for c.Stats().Misses < 2 {
				time.Sleep(time.Millisecond)
			}
			panic("builder exploded")
		})
	}()
	<-entered
	go func() {
		_, err := c.Get("k", nil) // joins the in-flight build
		waiterDone <- err
	}()
	if err := <-waiterDone; err == nil {
		t.Fatal("waiter of a panicked flight got nil error")
	}
	if p := <-panicked; p == nil {
		t.Fatal("builder's panic did not propagate")
	}
	// The key is retryable afterwards.
	v, err := c.Get("k", func() (int, int64, error) { return 9, 1, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry after panic = (%d, %v), want (9, nil)", v, err)
	}
}

// TestCacheZeroBudget keeps nothing but still single-flights.
func TestCacheZeroBudget(t *testing.T) {
	c := NewCache[int](0)
	var builds int
	for i := 0; i < 3; i++ {
		v, err := c.Get("k", func() (int, int64, error) { builds++; return builds, 4, nil })
		if err != nil || v != builds {
			t.Fatalf("get %d = (%d, %v)", i, v, err)
		}
	}
	if builds != 3 || c.Len() != 0 {
		t.Fatalf("zero-budget cache retained entries: builds=%d len=%d", builds, c.Len())
	}
}

// TestCacheConcurrentChurn hammers distinct and shared keys under a
// tiny budget; run with -race this is the locking regression test.
func TestCacheConcurrentChurn(t *testing.T) {
	c := NewCache[int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w+i)%13)
				v, err := c.Get(k, func() (int, int64, error) { return len(k), 16, nil })
				if err != nil || v != len(k) {
					t.Errorf("churn get %s = (%d, %v)", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if used := c.Stats().UsedBytes; used > 64 {
		t.Fatalf("budget violated: used=%d > 64", used)
	}
}
