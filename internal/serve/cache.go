// Package serve is the mining-as-a-service layer: a long-lived HTTP
// daemon (Server) that accepts count/mine/simulate queries over named
// datasets or uploaded graphs, an admission controller that sheds load
// instead of degrading (Admission), a single-flight memory-budgeted LRU
// cache for the expensive shared artifacts (Cache), and an open-loop
// load generator (RunLoad) for saturation experiments.
//
// The package's headline is its failure behavior, not its happy path:
// bounded queues everywhere, per-request governor budgets, typed errors
// mapped to distinct HTTP statuses, per-request panic isolation, and a
// graceful drain sequence (stop admitting → finish or cancel in-flight
// → exit clean). See DESIGN.md "Serving & overload behavior".
package serve

import (
	"container/list"
	"sync"
)

// Cache is a single-flight, memory-budgeted LRU cache keyed by string.
//
// Single-flight: when concurrent callers ask for the same missing key,
// exactly one runs the build function; the rest block until it finishes
// and share the result (a stampede of identical uploads mines the graph
// once). Memory-budgeted: each entry carries a caller-reported size and
// the cache evicts least-recently-used entries whenever the total
// exceeds the budget, so a daemon serving arbitrary uploads has a hard
// cap on cache memory. An entry larger than the whole budget is
// returned to the caller but not retained.
//
// A failed build is not cached (no negative caching): the error is
// returned to every waiter of that flight and the next Get retries.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	ll      *list.List // MRU at front; holds only ready entries
	entries map[string]*cacheEntry[V]
	stats   CacheStats
}

type cacheEntry[V any] struct {
	key   string
	elem  *list.Element // nil while the build is in flight
	ready chan struct{} // closed when val/size/err are final
	val   V
	size  int64
	err   error
}

// CacheStats is a point-in-time snapshot of cache behavior.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`        // includes waits on another caller's flight
	Evictions    int64 `json:"evictions"`     // entries removed to fit the budget
	EvictedBytes int64 `json:"evicted_bytes"` // charged size of evicted entries
	Errors       int64 `json:"errors"`        // failed builds (not cached)
	Oversize     int64 `json:"oversize"`      // values larger than the whole budget
	UsedBytes    int64 `json:"used_bytes"`    // current charged size
	Budget       int64 `json:"budget_bytes"`
	Entries      int   `json:"entries"`
}

// NewCache returns a cache bounded by budgetBytes (<= 0 keeps nothing:
// every Get builds, which is still single-flight for concurrent callers).
func NewCache[V any](budgetBytes int64) *Cache[V] {
	return &Cache[V]{
		budget:  budgetBytes,
		ll:      list.New(),
		entries: map[string]*cacheEntry[V]{},
	}
}

// Get returns the cached value for key, building it at most once per
// miss. build reports the value, its resident size in bytes, and an
// error; it runs without the cache lock held, so builds for different
// keys proceed concurrently. If build panics the flight is cleaned up
// (waiters get an error, the key stays uncached) and the panic resumes
// on the building goroutine.
func (c *Cache[V]) Get(key string, build func() (V, int64, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.ll.MoveToFront(e.elem)
			c.stats.Hits++
			v := e.val
			c.mu.Unlock()
			return v, nil
		}
		// Another caller is building this key: join its flight.
		c.stats.Misses++
		c.mu.Unlock()
		<-e.ready
		return e.val, e.err
	}
	e := &cacheEntry[V]{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.stats.Misses++
	c.mu.Unlock()

	finished := false
	defer func() {
		if finished {
			return
		}
		// build panicked: fail the flight so waiters unblock, drop the
		// key so the next Get retries, and let the panic propagate.
		c.mu.Lock()
		delete(c.entries, key)
		c.stats.Errors++
		c.mu.Unlock()
		e.err = errPanickedBuild
		close(e.ready)
	}()
	v, size, err := build()
	finished = true

	c.mu.Lock()
	e.val, e.size, e.err = v, size, err
	if err != nil {
		delete(c.entries, key)
		c.stats.Errors++
	} else {
		if e.size < 0 {
			e.size = 0
		}
		e.elem = c.ll.PushFront(e)
		c.used += e.size
		c.evictLocked(e)
	}
	close(e.ready)
	c.mu.Unlock()
	return v, err
}

// evictLocked removes LRU entries until used fits the budget. just is
// the entry that triggered the pass: if evicting everything else still
// leaves it over budget, it is dropped too (returned to its caller,
// never resident), keeping the budget a hard bound.
func (c *Cache[V]) evictLocked(just *cacheEntry[V]) {
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*cacheEntry[V])
		c.ll.Remove(back)
		victim.elem = nil
		delete(c.entries, victim.key)
		c.used -= victim.size
		if victim == just {
			c.stats.Oversize++
			return
		}
		c.stats.Evictions++
		c.stats.EvictedBytes += victim.size
	}
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.UsedBytes = c.used
	s.Budget = c.budget
	s.Entries = c.ll.Len()
	return s
}

// Len reports the number of resident (ready) entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// errPanickedBuild is what waiters of a flight whose builder panicked
// receive; the builder itself re-panics.
var errPanickedBuild = errorString("serve: cache build panicked")

type errorString string

func (e errorString) Error() string { return string(e) }
