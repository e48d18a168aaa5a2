package sim

import (
	"math/rand"
	"testing"
)

// drain pops every event, asserting (time, seq) total order and that
// popped nodes are unlinked, and returns the pop sequence's seqs.
func drain(t *testing.T, q *calendarQueue) []int64 {
	t.Helper()
	var out []int64
	var prev *event
	for q.len() > 0 {
		pk := q.peek()
		ev := q.pop()
		if ev != pk {
			t.Fatalf("peek %v != pop %v", pk, ev)
		}
		if ev.next != nil {
			t.Fatalf("popped event (%d,%d) still linked", ev.at, ev.seq)
		}
		if prev != nil && !(prev.before(ev)) {
			t.Fatalf("order violation: (%d,%d) before (%d,%d)", prev.at, prev.seq, ev.at, ev.seq)
		}
		p := *ev
		prev = &p
		out = append(out, ev.seq)
	}
	if q.pop() != nil || q.peek() != nil {
		t.Fatal("empty queue returned an event")
	}
	return out
}

func mkEvent(at Time, seq int64) *event { return &event{at: at, seq: seq} }

func TestCalendarSameCycleFIFO(t *testing.T) {
	q := &calendarQueue{}
	for i := int64(1); i <= 5; i++ {
		q.push(mkEvent(7, i))
	}
	seqs := drain(t, q)
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("same-cycle order %v, want 1..5", seqs)
		}
	}
}

func TestCalendarFarFutureOverflow(t *testing.T) {
	q := &calendarQueue{}
	// Beyond the window: must land in, and pop from, the overflow heap.
	q.push(mkEvent(calWindow*3+5, 1))
	q.push(mkEvent(2, 2))
	q.push(mkEvent(calWindow*3+5, 3)) // same far cycle, FIFO with seq 1
	q.push(mkEvent(calWindow*10, 4))
	seqs := drain(t, q)
	want := []int64{2, 1, 3, 4}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("pop order %v, want %v", seqs, want)
		}
	}
}

// TestCalendarOverflowEntersWindow pins the subtle case: after base
// advances, the overflow minimum falls inside [base, base+W) while the
// ring holds a later event — peek must compare both heads.
func TestCalendarOverflowEntersWindow(t *testing.T) {
	q := &calendarQueue{}
	q.push(mkEvent(0, 1))
	q.push(mkEvent(calWindow+2, 2)) // >= base+W at push time: overflow
	q.push(mkEvent(10, 3))
	if ev := q.pop(); ev.seq != 1 {
		t.Fatalf("first pop seq %d", ev.seq)
	}
	if ev := q.pop(); ev.seq != 3 {
		t.Fatalf("second pop seq %d", ev.seq)
	}
	// base is now 10, window [10, calWindow+10): this push is
	// ring-resident even though the overflow min (calWindow+2) is older.
	q.push(mkEvent(calWindow+7, 4))
	if q.winCount != 1 || len(q.over.h) != 1 {
		t.Fatalf("placement: winCount=%d overflow=%d", q.winCount, len(q.over.h))
	}
	// Peek/pop must compare the ring head against the overflow head.
	if ev := q.pop(); ev.at != calWindow+2 {
		t.Fatalf("pop at %d, want %d (overflow head inside window)", ev.at, calWindow+2)
	}
	if ev := q.pop(); ev.at != calWindow+7 {
		t.Fatalf("pop at %d, want %d", ev.at, calWindow+7)
	}
}

func TestCalendarWindowWrap(t *testing.T) {
	q := &calendarQueue{}
	// Advance base deep into the ring so pushes wrap the bucket array.
	q.push(mkEvent(calWindow-3, 1))
	if q.pop().seq != 1 {
		t.Fatal("warmup pop")
	}
	// base = calWindow-3. These wrap modulo calWindow.
	q.push(mkEvent(calWindow-1, 2))
	q.push(mkEvent(calWindow+1, 3))   // bucket 1: wrapped
	q.push(mkEvent(calWindow-2, 4))   // before base? no: base-? => bucket calWindow-2
	q.push(mkEvent(2*calWindow-4, 5)) // last bucket of the span
	seqs := drain(t, q)
	want := []int64{4, 2, 3, 5}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("pop order %v, want %v", seqs, want)
		}
	}
}

// TestCalendarAgainstHeap drives the calendar queue and a plain binary
// heap (the type the calendar uses for its overflow) with an identical
// randomized schedule/pop workload and requires identical pop sequences.
func TestCalendarAgainstHeap(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cal, hp := &calendarQueue{}, &heapQueue{}
		var now Time
		var seq int64
		for i := 0; i < 5000; i++ {
			if rng.Intn(3) != 0 || cal.len() == 0 {
				var d Time
				switch rng.Intn(10) {
				case 0: // far future
					d = Time(rng.Intn(4 * calWindow))
				case 1: // same cycle
					d = 0
				default:
					d = Time(rng.Intn(64))
				}
				seq++
				cal.push(mkEvent(now+d, seq))
				hp.push(mkEvent(now+d, seq))
			} else {
				a, b := cal.pop(), hp.pop()
				if a.at != b.at || a.seq != b.seq {
					t.Fatalf("seed %d: pop diverged (%d,%d) vs (%d,%d)", seed, a.at, a.seq, b.at, b.seq)
				}
				now = a.at
			}
			if cal.len() != len(hp.h) {
				t.Fatalf("seed %d: len diverged %d vs %d", seed, cal.len(), len(hp.h))
			}
		}
		for cal.len() > 0 {
			a, b := cal.pop(), hp.pop()
			if a.at != b.at || a.seq != b.seq {
				t.Fatalf("seed %d: drain diverged", seed)
			}
		}
		if len(hp.h) != 0 {
			t.Fatalf("seed %d: heap not drained", seed)
		}
	}
}

// TestEngineActorOrder checks Func-adapted and actor events interleave in
// scheduling order at the same timestamp.
type orderRecorder struct {
	got []int
}

func (r *orderRecorder) Act(op int, _ any) { r.got = append(r.got, op) }

func TestEngineActorOrder(t *testing.T) {
	e := NewEngine()
	r := &orderRecorder{}
	e.Post(5, r, 1, nil)
	e.Post(5, Func(func() { r.got = append(r.got, 2) }), 0, nil)
	e.Post(5, r, 3, nil)
	e.Post(3, r, 0, nil)
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(r.got) != len(want) {
		t.Fatalf("got %v", r.got)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("order %v, want %v", r.got, want)
		}
	}
	if e.Now() != 5 || e.Processed != 4 || e.Pending() != 0 {
		t.Fatalf("end state now=%d processed=%d pending=%d", e.Now(), e.Processed, e.Pending())
	}
}

// TestEngineFreelistReuse checks node recycling: a long self-rearming
// chain must not grow the allocation block beyond its first refill.
func TestEngineFreelistReuse(t *testing.T) {
	e := NewEngine()
	a := &benchActor{e: e, delay: 1, remaining: 10 * eventBlock}
	e.PostAfter(1, a, 0, nil)
	e.Run()
	if e.Processed != int64(10*eventBlock)+1 {
		t.Fatalf("processed %d", e.Processed)
	}
	// One live event at a time: the first block must never be exhausted.
	if len(e.block) < eventBlock-2 {
		t.Fatalf("freelist not reused: %d of %d block slots left", len(e.block), eventBlock)
	}
}

// TestCalendarPeekThenEarlierPush pins the fuzz-found regression: a peek
// while only far-future events are queued must not advance the window
// floor, because a later push at an earlier (still legal) time must
// still pop first.
func TestCalendarPeekThenEarlierPush(t *testing.T) {
	q := &calendarQueue{}
	q.push(mkEvent(calWindow+259, 1)) // overflow
	if q.peek().at != calWindow+259 {
		t.Fatal("peek should see the overflow head")
	}
	q.push(mkEvent(calWindow-4, 2)) // legal: clock is still 0
	if ev := q.pop(); ev.at != calWindow-4 {
		t.Fatalf("pop at %d, want %d", ev.at, calWindow-4)
	}
	if ev := q.pop(); ev.at != calWindow+259 {
		t.Fatalf("pop at %d, want %d", ev.at, calWindow+259)
	}
}
