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
// Each unit's horizon is packed with its index into one key,
// until<<shift | unit, and the keys are kept sorted: keys[0] is the
// earliest-free unit, ties broken on the lower unit index, exactly as the
// original linear scan chose. A reservation only pushes one key forward,
// so Acquire moves it up to its sorted place (one short memmove on the
// ≤ 24-unit banks). The sorted order is what lets AcquireBatch water-fill
// k reservations in closed form instead of k single picks.
type Pool struct {
	name  string
	keys  []int64 // sorted until<<shift | unit, one per unit
	shift uint    // bits.Len(n-1): unit bits in a packed key
	mask  int64   // 1<<shift - 1

	// AcquireBatch scratch, indexed by unit: the leveled prefix is a
	// circular list (next) of keys stored minus a shared offset (val);
	// mark sorts restarted idle units by index. A fully leveled batch
	// uses val to hold the keys it rotates to the end.
	next []int32
	val  []int64
	mark []uint64

	busy     Time
	acquires int64
	perturb  Perturber
}

// NewPool creates a pool of n units.
func NewPool(name string, n int) *Pool {
	if n < 1 {
		panic("sim: pool needs at least one unit")
	}
	p := &Pool{name: name}
	p.shift = uint(bits.Len(uint(n - 1)))
	p.mask = 1<<p.shift - 1
	p.keys = make([]int64, n)
	for i := range p.keys {
		// All horizons are 0, so unit order is sorted order.
		p.keys[i] = int64(i)
	}
	p.next = make([]int32, n)
	p.val = make([]int64, n)
	p.mark = make([]uint64, (n+63)/64)
	return p
}

// raise moves keys[i], whose unit's key grew to key, up to its sorted
// place. Reservations never lower a horizon, so the key only moves right;
// the scan starts from the end because a fresh reservation usually
// becomes the latest.
func (p *Pool) raise(i int, key int64) {
	h := p.keys
	j := len(h) - 1
	for j > i && h[j] > key {
		j--
	}
	copy(h[i:j], h[i+1:j+1])
	h[j] = key
}

// Name returns the pool's name.
func (p *Pool) Name() string { return p.name }

// Size returns the number of units.
func (p *Pool) Size() int { return len(p.keys) }

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
	start := max(Time(k>>p.shift), now)
	p.raise(0, int64(start+dur)<<p.shift|k&p.mask)
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
//
// The k picks are the k smallest pick keys, taken in key order. A unit's
// first pick is ordered by its current key, even when its horizon lies
// before now (idle units go in the order of their old horizons, not by
// index), and starts at max(until, now) = b; its j-th later pick has key
// (b + j·dur, unit). The batch computes that order in closed form: idle
// units restart at now in one merge, then a prefix of the sorted keys
// that lies within one dur of its minimum (the leveled prefix) takes
// whole rounds in key order, and lagging units join it in bulk, one
// division per join instead of one pick per reservation.
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
	p.busy += Time(k) * dur
	p.acquires += int64(k)
	h := p.keys
	n := len(h)
	nowKey := int64(now) << p.shift
	d := int64(dur) << p.shift

	// Idle units take the first picks, each starting at now.
	m := 0
	for m < n && m < k && h[m] < nowKey {
		m++
	}
	if m > 0 {
		p.restart(m, nowKey+d)
		if k -= m; k == 0 {
			return now + dur
		}
	}
	if d == 0 {
		// Zero-length picks leave every key in place: all go to the
		// earliest unit, which no longer lies before now.
		return Time(h[0] >> p.shift)
	}

	if h[n-1] < h[0]+d {
		// All n keys are leveled: whole rounds in key order, every unit
		// r picks and the first q one more. The keys rotate left by q.
		r := int64(k-1) / int64(n)
		q := (k-1)%n + 1
		last := h[q-1] + r*d
		lead := append(p.val[:0], h[:q]...)
		copy(h, h[q:])
		for i := range h[:n-q] {
			h[i] += r * d
		}
		for i, key := range lead {
			h[n-q+i] = key + (r+1)*d
		}
		return Time(last>>p.shift) + dur
	}

	// Grow the leveled prefix (a units, max key < min key + d, held as
	// a circular list from head, in key order, of val+off) over the
	// sorted keys.
	next, val := p.next, p.val
	head := int32(h[0] & p.mask)
	tail := head
	next[head] = head
	val[head] = h[0]
	var off int64
	a := 1
	for ; a < n; a++ {
		x := h[a]
		u := int32(x & p.mask)
		if x < val[head]+off+d {
			// Within one dur of the minimum: x joins the rounds at
			// its key-order place without any pick being taken first.
			val[u] = x - off
			e := tail
			if x < val[tail]+off {
				for e = head; val[next[e]]+off < x; e = next[e] {
				}
			}
			next[u], next[e] = next[e], u
			if e == tail {
				tail = u
			}
			continue
		}
		// Lagging: r whole rounds, then the q prefix units still below
		// x, go before x's first pick. Keys of two units never differ
		// by a multiple of d (their unit bits differ), so r counts the
		// rounds whose last key lies below x exactly.
		r := (x-val[tail]-off)/d + 1
		if int64(k) <= r*int64(a) {
			break
		}
		prev, e, q := tail, head, 0
		for val[e]+off+r*d < x {
			prev, e = e, next[e]
			q++
		}
		if int64(k) <= r*int64(a)+int64(q) {
			break
		}
		k -= int(r)*a + q
		off += r * d
		for f := head; f != e; f = next[f] {
			val[f] += d
		}
		// x is now the minimum: it leads, the q raised units trail.
		val[u] = x - off
		next[prev], next[u] = u, e
		head, tail = u, prev
	}

	// The remaining k picks are whole rounds over the leveled prefix in
	// key order: every unit gets r, the first q one more.
	r := int64(k-1) / int64(a)
	q := (k-1)%a + 1
	off += r * d
	var last int64
	e := head
	for i := 0; i < q; i++ {
		last = val[e] + off
		val[e] += d
		e = next[e]
	}
	// Write the prefix back from its new minimum, merged in place with
	// the untouched keys h[a:] (the write index never passes the read
	// index).
	i, t := 0, a
	for c := 0; c < a; c++ {
		key := val[e] + off
		for t < n && h[t] < key {
			h[i] = h[t]
			i, t = i+1, t+1
		}
		h[i] = key
		i++
		e = next[e]
	}
	return Time(last>>p.shift) + dur
}

// restart gives the first m (idle) units the key base|unit and merges
// them back into sorted order: restarted together, they now order by unit
// index rather than by their old horizons.
func (p *Pool) restart(m int, base int64) {
	h := p.keys
	if m == len(h) {
		for i := range h {
			h[i] = base | int64(i)
		}
		return
	}
	for _, key := range h[:m] {
		u := key & p.mask
		p.mark[u>>6] |= 1 << (u & 63)
	}
	i, t := 0, m
	for w := range p.mark {
		for p.mark[w] != 0 {
			key := base | int64(w<<6+bits.TrailingZeros64(p.mark[w]))
			p.mark[w] &= p.mark[w] - 1
			for t < len(h) && h[t] < key {
				h[i] = h[t]
				i, t = i+1, t+1
			}
			h[i] = key
			i++
		}
	}
}

// AcquireDynamic reserves the earliest-available unit starting no earlier
// than now, for a duration the caller does not yet know; the caller must
// finish the reservation with ReleaseAt. Used for MSHR-style resources
// whose hold time depends on a downstream access.
func (p *Pool) AcquireDynamic(now Time) (unit int, start Time) {
	k := p.keys[0]
	start = max(Time(k>>p.shift), now)
	p.raise(0, int64(start)<<p.shift|k&p.mask)
	p.acquires++
	return int(k & p.mask), start
}

// ReleaseAt completes a dynamic reservation: the unit stays busy until t.
func (p *Pool) ReleaseAt(unit int, t Time) {
	i := 0
	for p.keys[i]&p.mask != int64(unit) {
		i++
	}
	if until := Time(p.keys[i] >> p.shift); t > until {
		p.busy += t - until
		p.raise(i, int64(t)<<p.shift|int64(unit))
	}
}

// InFlightAt reports how many units are still reserved past `now` — the
// instantaneous queue depth a telemetry gauge sees at an epoch boundary.
func (p *Pool) InFlightAt(now Time) int {
	n := 0
	for i := len(p.keys) - 1; i >= 0 && Time(p.keys[i]>>p.shift) > now; i-- {
		n++
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
	return float64(p.busy) / (float64(elapsed) * float64(len(p.keys)))
}

// Ratio is part/whole, 0 when whole is 0 (hit rates and window averages).
func Ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
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
