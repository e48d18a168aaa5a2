package sim

import "math/bits"

// Pool models a bank of identical functional units (intersection units,
// dividers, DRAM channels, NoC links, pipeline stages). Acquire reserves
// the earliest-available unit for a duration and returns the start time;
// the pool accumulates busy cycles for utilization reporting.
//
// Pools are "busy-until" abstractions: reservations are made greedily in
// call order, which matches an in-order arbiter granting requests as they
// arrive.
//
// The earliest-free unit is tracked incrementally with a min-heap of
// packed (until << shift | unit) keys, so Acquire on a 24-unit IU bank
// costs O(log n) single-word comparisons instead of rescanning until[]
// — Acquire was the simulator's single hottest function before (20% of
// BenchmarkSimulate). The packed key orders by (until, unit): ties
// break on the lower unit index, exactly matching the old linear scan,
// so reservation order (and therefore every golden timing result) is
// unchanged. Reservations only ever push a unit's horizon forward, so
// re-heapifying is always a sift-down from the updated node.
type Pool struct {
	name string
	// until[id] mirrors the horizon packed into the keys (InFlightAt,
	// ReleaseAt) — keys are authoritative for ordering.
	until []Time
	keys  []int64 // min-heap of until<<shift | unit
	pos   []int32 // pos[id] = index of id's key in keys
	shift uint    // bits.Len(n-1): unit bits in a packed key
	mask  int64   // 1<<shift - 1

	busy     Time
	acquires int64
	perturb  Perturber
}

// NewPool creates a pool of n units.
func NewPool(name string, n int) *Pool {
	if n < 1 {
		panic("sim: pool needs at least one unit")
	}
	p := &Pool{name: name, until: make([]Time, n)}
	p.shift = uint(bits.Len(uint(n - 1)))
	p.mask = 1<<p.shift - 1
	p.keys = make([]int64, n)
	p.pos = make([]int32, n)
	for i := range p.keys {
		// Identity order is a valid heap: all untils are 0 and ties
		// order by unit index.
		p.keys[i] = int64(i)
		p.pos[i] = int32(i)
	}
	return p
}

// siftDown restores the heap below position i after keys[i] increased
// (reservations never decrease a unit's horizon).
func (p *Pool) siftDown(i int32) {
	h := p.keys
	n := int32(len(h))
	k := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && h[r] < h[l] {
			c = r
		}
		if h[c] >= k {
			break
		}
		h[i] = h[c]
		p.pos[h[c]&p.mask] = i
		i = c
	}
	h[i] = k
	p.pos[k&p.mask] = i
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the number of units.
func (p *Pool) Size() int { return len(p.until) }

// SetPerturb installs a service-time perturber (nil removes it). Used by
// the chaos harness to inject deterministic latency jitter.
func (p *Pool) SetPerturb(pr Perturber) { p.perturb = pr }

// Acquire reserves one unit for dur cycles starting no earlier than now,
// returning the reservation's start time (start+dur is the completion).
func (p *Pool) Acquire(now Time, dur Time) Time {
	if p.perturb != nil && dur > 0 {
		if d := p.perturb.ServiceTime(p.name, dur); d >= 0 {
			dur = d
		}
	}
	k := p.keys[0]
	best := k & p.mask
	start := Time(k >> p.shift)
	if start < now {
		start = now
	}
	p.until[best] = start + dur
	p.keys[0] = int64(start+dur)<<p.shift | best
	if len(p.keys) > 1 {
		p.siftDown(0)
	}
	p.busy += dur
	p.acquires++
	return start
}

// AcquireBatch makes k identical reservations of dur cycles each
// starting no earlier than now — exactly equivalent to k successive
// Acquire calls — and returns the latest completion time (now when k is
// zero). The PE's divider and IU stages reserve one slot per input line
// / segment pair at a common issue time, so the batch form replaces the
// simulator's hottest per-item loop.
func (p *Pool) AcquireBatch(now Time, dur Time, k int) Time {
	if k <= 0 {
		return now
	}
	if p.perturb != nil {
		// Perturbed durations vary per reservation and must consume the
		// chaos RNG stream one draw per reservation: take the exact
		// per-call path. Starts are non-decreasing (horizons only
		// grow), so the last start is the latest; completions use the
		// nominal duration, as the per-item loop did.
		var start Time
		for i := 0; i < k; i++ {
			start = p.Acquire(now, dur)
		}
		return start + dur
	}
	h := p.keys
	n := int32(len(h))
	if n == 1 {
		// Single unit: k back-to-back reservations.
		start := Time(h[0] >> p.shift)
		if start < now {
			start = now
		}
		end := start + Time(k)*dur
		p.until[0] = end
		h[0] = int64(end) << p.shift
		p.busy += Time(k) * dur
		p.acquires += int64(k)
		return end
	}
	nowKey := int64(now) << p.shift
	var rootKey int64
	for i := 0; i < k; i++ {
		rootKey = h[0]
		if rootKey < nowKey {
			// Unit free before now: starts at now, keeps its index bits.
			rootKey = nowKey | rootKey&p.mask
		}
		rootKey += int64(dur) << p.shift
		// Inlined siftDown(0) without pos maintenance: positions are
		// rebuilt once after the loop.
		key := rootKey
		var j int32
		for {
			l := 2*j + 1
			if l >= n {
				break
			}
			c := l
			if r := l + 1; r < n && h[r] < h[l] {
				c = r
			}
			if h[c] >= key {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = key
	}
	for i, key := range h {
		unit := key & p.mask
		p.until[unit] = Time(key >> p.shift)
		p.pos[unit] = int32(i)
	}
	p.busy += Time(k) * dur
	p.acquires += int64(k)
	// The last reservation starts latest (horizons only grow), so its
	// horizon is the batch's latest completion.
	return Time(rootKey >> p.shift)
}

// AcquireDynamic reserves the earliest-available unit starting no earlier
// than now, for a duration the caller does not yet know; the caller must
// finish the reservation with ReleaseAt. Used for MSHR-style resources
// whose hold time depends on a downstream access.
func (p *Pool) AcquireDynamic(now Time) (unit int, start Time) {
	k := p.keys[0]
	best := k & p.mask
	start = Time(k >> p.shift)
	if start < now {
		start = now
	}
	p.until[best] = start
	p.keys[0] = int64(start)<<p.shift | best
	if len(p.keys) > 1 {
		p.siftDown(0)
	}
	p.acquires++
	return int(best), start
}

// ReleaseAt completes a dynamic reservation: the unit stays busy until t.
func (p *Pool) ReleaseAt(unit int, t Time) {
	if t > p.until[unit] {
		p.busy += t - p.until[unit]
		p.until[unit] = t
		p.keys[p.pos[unit]] = int64(t)<<p.shift | int64(unit)
		if len(p.keys) > 1 {
			p.siftDown(p.pos[unit])
		}
	}
}

// InFlightAt reports how many units are still reserved past `now` — the
// instantaneous queue depth a telemetry gauge sees at an epoch boundary.
func (p *Pool) InFlightAt(now Time) int {
	n := 0
	for _, u := range p.until {
		if u > now {
			n++
		}
	}
	return n
}

// NextFree reports the earliest time any unit becomes available.
func (p *Pool) NextFree() Time {
	return Time(p.keys[0] >> p.shift)
}

// Busy returns the accumulated busy cycles across all units.
func (p *Pool) Busy() Time { return p.busy }

// Acquires reports the total reservations made (hardware-counter export).
func (p *Pool) Acquires() int64 { return p.acquires }

// Utilization returns busy cycles divided by capacity over elapsed cycles.
func (p *Pool) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(p.busy) / (float64(elapsed) * float64(len(p.until)))
}

// Semaphore is a counting resource with an explicit waiter queue, used for
// resources held across an unknown span (execution slots, SPM lines,
// address tokens). Waiters are woken FIFO when capacity frees.
type Semaphore struct {
	name    string
	cap     int
	inUse   int
	waiters []semWaiter

	// occupancy integral for average-utilization reporting
	lastChange   Time
	levelCycles  Time
	peakInUse    int
	acquireCount int64
	// units conservation (acquired - released must equal inUse)
	unitsAcquired int64
	unitsReleased int64
}

// NewSemaphore creates a semaphore with capacity c.
func NewSemaphore(name string, c int) *Semaphore {
	return &Semaphore{name: name, cap: c}
}

// Name returns the semaphore's name.
func (s *Semaphore) Name() string { return s.name }

// Cap returns the capacity.
func (s *Semaphore) Cap() int { return s.cap }

// SetCap adjusts capacity (used by dynamic token tuning); it does not wake
// waiters by itself — callers should invoke Kick via TryAcquire paths.
func (s *Semaphore) SetCap(c int) { s.cap = c }

// InUse reports the currently held units.
func (s *Semaphore) InUse() int { return s.inUse }

// Available reports free units.
func (s *Semaphore) Available() int { return s.cap - s.inUse }

// TryAcquire acquires n units if available, reporting success.
func (s *Semaphore) TryAcquire(now Time, n int) bool {
	if s.inUse+n > s.cap {
		return false
	}
	s.account(now)
	s.inUse += n
	s.acquireCount++
	s.unitsAcquired += int64(n)
	if s.inUse > s.peakInUse {
		s.peakInUse = s.inUse
	}
	return true
}

// semWaiter is one queued wakeup: a.Act(op, arg) re-attempts the
// acquisition.
type semWaiter struct {
	act Actor
	op  int
	arg any
}

// AcquireOrWait acquires n units or registers a.Act(op, arg) to be
// called (once) when any capacity is released. It reports whether the
// acquisition succeeded immediately. Waiters are strictly FIFO: a new
// request queues behind existing waiters even if capacity is currently
// available, modeling an in-order allocation stage (a later small
// request must not starve an earlier large one).
func (s *Semaphore) AcquireOrWait(now Time, n int, a Actor, op int, arg any) bool {
	if len(s.waiters) == 0 && s.TryAcquire(now, n) {
		return true
	}
	s.waiters = append(s.waiters, semWaiter{act: a, op: op, arg: arg})
	return false
}

// Release returns n units and wakes all waiters (they re-attempt their
// acquisition; simpler than precise hand-off and equivalent for a
// single-threaded event loop).
func (s *Semaphore) Release(now Time, n int) {
	s.account(now)
	s.inUse -= n
	s.unitsReleased += int64(n)
	if s.inUse < 0 {
		panic("sim: semaphore over-release: " + s.name)
	}
	if len(s.waiters) > 0 {
		ws := s.waiters
		s.waiters = nil
		for _, w := range ws {
			w.act.Act(w.op, w.arg)
		}
	}
}

func (s *Semaphore) account(now Time) {
	s.levelCycles += Time(s.inUse) * (now - s.lastChange)
	s.lastChange = now
}

// AvgOccupancy reports the time-averaged units in use through `now`.
func (s *Semaphore) AvgOccupancy(now Time) float64 {
	if now <= 0 {
		return 0
	}
	total := s.levelCycles + Time(s.inUse)*(now-s.lastChange)
	return float64(total) / float64(now)
}

// OccupancyIntegral reports the exact unit-cycle integral through `now`:
// the sum over all holders of (release − acquire) cycles, plus the span
// still held. It is the conservation-law counterpart of AvgOccupancy —
// per-PE slot residency sums must match it to the cycle.
func (s *Semaphore) OccupancyIntegral(now Time) Time {
	return s.levelCycles + Time(s.inUse)*(now-s.lastChange)
}

// UnitsAcquired reports the total units ever granted.
func (s *Semaphore) UnitsAcquired() int64 { return s.unitsAcquired }

// UnitsReleased reports the total units ever returned.
func (s *Semaphore) UnitsReleased() int64 { return s.unitsReleased }

// Peak reports the peak concurrent units held.
func (s *Semaphore) Peak() int { return s.peakInUse }

// Acquires reports the total successful acquisitions.
func (s *Semaphore) Acquires() int64 { return s.acquireCount }

// Waiters reports the queued waiter count (diagnostic).
func (s *Semaphore) Waiters() int { return len(s.waiters) }

// Snap captures the semaphore's state for a diagnostic snapshot.
func (s *Semaphore) Snap() ResourceSnap {
	return ResourceSnap{Name: s.name, Kind: "semaphore", Cap: s.cap, InUse: s.inUse, Waiters: len(s.waiters)}
}
