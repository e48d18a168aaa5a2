package sim

import "math/bits"

// calendarQueue is a hierarchical calendar queue: a ring of per-cycle
// buckets covering a sliding near-future window of calWindow cycles,
// backed by a far-future binary heap.
//
// Almost every event a Shogun simulation schedules is short-delay —
// pipeline stage hops of a few cycles, pool completions tens of cycles
// out, monitor/balance ticks a few thousand cycles out — so the ring
// absorbs essentially all traffic: push appends to a singly linked
// bucket FIFO in O(1), and pop finds the next non-empty bucket with a
// one-bit-per-bucket occupancy bitmap (a few word scans, usually one).
// Only events scheduled ≥ calWindow cycles ahead touch the overflow
// heap; they stay there and pop directly from the heap head, which
// peek always compares against the ring minimum.
//
// # Determinism
//
// The engine's contract is a total order by (time, seq). The ring
// preserves it structurally:
//
//   - base only advances in pop, to the popped event's time — which is
//     the queue minimum and becomes the engine's clock. The engine
//     never schedules into the past, so every future push has
//     at ≥ base: nothing ever lands "behind" the window floor. (An
//     earlier design bulk-moved overflow events into the ring by
//     advancing base to the overflow minimum; that jumps base past
//     the clock and lets a later legal push land behind it, which the
//     engine-order fuzzer caught. Overflow events now pop from their
//     heap one at a time instead — they are rare by design.)
//   - A bucket only ever holds events of a single timestamp: an event
//     enters bucket t mod W only while t ∈ [base, base+W), and two
//     times t, t+W can never satisfy that simultaneously because base
//     is monotone and never passes a queued event.
//   - Within a bucket, events append in push order, and live pushes
//     happen in seq order.
//   - Across ring and overflow, peek compares the two heads by
//     (time, seq) — the overflow minimum can fall inside the window
//     span after base advances past its push-time horizon, and a
//     same-time overflow event always has the smaller seq (it was
//     pushed before the window could reach its timestamp).
//
// FuzzEventQueueEquivalence pins the result against a linear-scan
// reference model of the (time, seq) order, and TestCalendarAgainstHeap
// against a plain binary heap.
type calendarQueue struct {
	// buckets[i] chains the queued events with at ≡ i (mod calWindow),
	// all of one single timestamp, in FIFO (= seq) order.
	buckets [calWindow]calBucket
	// occ is the bucket occupancy bitmap (bit i = bucket i non-empty).
	occ [calWindow / 64]uint64
	// base is the window floor: every ring event has at ∈ [base,
	// base+calWindow). It advances to each popped event's time.
	base Time
	// winCount counts ring events; n counts all queued events.
	winCount int
	n        int
	// over is the far-future overflow: a binary heap by (at, seq).
	over heapQueue

	// cached is the memoized peek result (nil = unknown); cachedOver
	// records whether it lives in the overflow heap or the ring.
	cached     *event
	cachedOver bool
}

// calWindow is the ring span in cycles. Power of two; sized so every
// periodic tick in the model (monitor 2048, balance/merge 4096) and all
// memory-system latencies land inside the window.
const calWindow = 8192

type calBucket struct{ head, tail *event }

func (q *calendarQueue) len() int { return q.n }

func (q *calendarQueue) push(ev *event) {
	q.n++
	if ev.at < q.base+calWindow {
		i := int(uint64(ev.at) & (calWindow - 1))
		b := &q.buckets[i]
		if b.tail == nil {
			b.head = ev
			q.occ[i>>6] |= 1 << (uint(i) & 63)
		} else {
			b.tail.next = ev
		}
		b.tail = ev
		q.winCount++
		if q.cached != nil && ev.at < q.cached.at {
			q.cached, q.cachedOver = ev, false
		}
		return
	}
	q.over.push(ev)
	if q.cached != nil && ev.at < q.cached.at {
		q.cached, q.cachedOver = ev, true
	}
}

func (q *calendarQueue) peek() *event {
	if q.cached != nil {
		return q.cached
	}
	if q.n == 0 {
		return nil
	}
	if q.winCount == 0 {
		// Ring empty: the overflow head is the queue minimum.
		q.cached, q.cachedOver = q.over.peek(), true
		return q.cached
	}
	ev := q.scanMin()
	if o := q.over.peek(); o != nil && o.before(ev) {
		q.cached, q.cachedOver = o, true
		return o
	}
	q.cached, q.cachedOver = ev, false
	return ev
}

func (q *calendarQueue) pop() *event {
	ev := q.peek()
	if ev == nil {
		return nil
	}
	if q.cachedOver {
		q.over.pop()
	} else {
		i := int(uint64(ev.at) & (calWindow - 1))
		b := &q.buckets[i]
		b.head = ev.next
		if b.head == nil {
			b.tail = nil
			q.occ[i>>6] &^= 1 << (uint(i) & 63)
		}
		ev.next = nil
		q.winCount--
	}
	q.n--
	q.base = ev.at
	q.cached = nil
	return ev
}

// scanMin returns the ring's earliest event: the first occupied bucket
// in ring order starting from base's bucket. Ring order from base walks
// the window's time span [base, base+W) in increasing time, so the
// first hit is the minimum. Must only run with winCount > 0.
func (q *calendarQueue) scanMin() *event {
	const nw = calWindow / 64
	start := int(uint64(q.base) & (calWindow - 1))
	w0 := start >> 6
	off := uint(start) & 63
	// Bits ≥ off of the first word cover [base, next word boundary).
	if w := q.occ[w0] >> off; w != 0 {
		return q.buckets[start+bits.TrailingZeros64(w)].head
	}
	// Whole words, wrapping once around the ring.
	for k := 1; k < nw; k++ {
		wi := (w0 + k) & (nw - 1)
		if w := q.occ[wi]; w != 0 {
			return q.buckets[wi<<6+bits.TrailingZeros64(w)].head
		}
	}
	// Bits < off of the first word: the wrapped tail of the window.
	if w := q.occ[w0] & (1<<off - 1); w != 0 {
		return q.buckets[w0<<6+bits.TrailingZeros64(w)].head
	}
	panic("sim: calendar ring empty despite winCount > 0")
}
