package sim

import (
	"bytes"
	"testing"
)

// orderEngine is the scheduling surface the fuzz interpreter drives:
// both the engine under test and the reference model implement it.
type orderEngine interface {
	Now() Time
	Post(t Time, a Actor, op int, arg any)
	PostAfter(d Time, a Actor, op int, arg any)
	Step() bool
	RunUntil(deadline Time) bool
	Run()
	Pending() int
	NextAt() (Time, bool)
}

// refEngine is the reference model of the engine's contract: pending
// events sit in a plain slice and each step delivers the (at, seq)-
// minimal one, found by a linear scan. It has no window, ring, overflow
// or freelist, so it cannot share a bug with the calendar queue.
type refEngine struct {
	now       Time
	seq       int64
	q         []refEvent
	processed int64
}

type refEvent struct {
	at, seq int64
	act     Actor
	op      int
	arg     any
}

func (r *refEngine) Now() Time { return r.now }

func (r *refEngine) Post(t Time, a Actor, op int, arg any) {
	if t < r.now {
		panic("ref: event scheduled in the past")
	}
	r.seq++
	r.q = append(r.q, refEvent{at: t, seq: r.seq, act: a, op: op, arg: arg})
}

func (r *refEngine) PostAfter(d Time, a Actor, op int, arg any) { r.Post(r.now+d, a, op, arg) }

// min returns the index of the (at, seq)-minimal pending event, or -1.
func (r *refEngine) min() int {
	m := -1
	for i, ev := range r.q {
		if m < 0 || ev.at < r.q[m].at || (ev.at == r.q[m].at && ev.seq < r.q[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refEngine) Step() bool {
	m := r.min()
	if m < 0 {
		return false
	}
	ev := r.q[m]
	r.q = append(r.q[:m], r.q[m+1:]...)
	r.now = ev.at
	r.processed++
	ev.act.Act(ev.op, ev.arg)
	return true
}

func (r *refEngine) Run() {
	for r.Step() {
	}
}

func (r *refEngine) RunUntil(deadline Time) bool {
	for {
		m := r.min()
		if m < 0 {
			return false
		}
		if r.q[m].at > deadline {
			return true
		}
		r.Step()
	}
}

func (r *refEngine) Pending() int { return len(r.q) }

func (r *refEngine) NextAt() (Time, bool) {
	m := r.min()
	if m < 0 {
		return 0, false
	}
	return r.q[m].at, true
}

// fuzzRecorder logs every delivery as (now, op) and optionally re-arms
// once (arg carries the re-arm delay), so fuzz programs exercise
// engine-driven pushes from inside callbacks, not just external ones.
type fuzzRecorder struct {
	e     orderEngine
	trace []int64
}

func (r *fuzzRecorder) Act(op int, arg any) {
	r.trace = append(r.trace, int64(r.e.Now()), int64(op))
	if d, ok := arg.(Time); ok {
		r.e.PostAfter(d, r, op+1_000_000, nil)
	}
}

// runOrderProgram interprets the fuzz input as a schedule/step program
// against e and returns the full trace: every delivery as (now, op),
// and after every instruction a -1 marker followed by the clock, the
// pending count and the peeked next time.
func runOrderProgram(e orderEngine, data []byte) []int64 {
	r := &fuzzRecorder{e: e}
	id := 0
	for i := 0; i+1 < len(data); i += 2 {
		op, val := data[i], Time(data[i+1])
		switch op % 7 {
		case 0: // same-cycle tie: must fire in scheduling order
			e.Post(e.Now(), r, id, nil)
		case 1: // short delay: calendar ring path
			e.PostAfter(val%64, r, id, nil)
		case 2: // beyond the window: overflow heap path
			e.PostAfter(calWindow+val*37, r, id, nil)
		case 3: // just inside / just outside the window boundary
			e.PostAfter(calWindow-4+val%8, r, id, nil)
		case 4: // self-re-arming event (push from inside a callback)
			e.PostAfter(val%64, r, id, val%17)
		case 5: // drain a bounded number of events
			for n := Time(0); n < val%32 && e.Step(); n++ {
			}
		case 6: // run to a deadline
			e.RunUntil(e.Now() + val%512)
		}
		id++
		next, ok := e.NextAt()
		if !ok {
			next = -1
		}
		r.trace = append(r.trace, -1, e.Now(), int64(e.Pending()), next)
	}
	e.Run()
	return append(r.trace, -1, e.Now(), int64(e.Pending()))
}

// FuzzEventQueueEquivalence drives the engine and the linear-scan
// reference model with an identical fuzz-derived program and requires
// bit-identical traces — deliveries, clocks, pending counts and peeks —
// and processed counts: the (time, seq) total order the whole
// simulator's determinism rests on.
func FuzzEventQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 9, 6, 255})
	f.Add([]byte{1, 3, 1, 3, 1, 3, 5, 31, 2, 200, 6, 255})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7})
	f.Add([]byte{4, 16, 4, 16, 4, 16, 5, 31, 4, 9, 6, 100})
	f.Add(bytes.Repeat([]byte{2, 7, 1, 1}, 32))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		e, ref := NewEngine(), &refEngine{}
		got, want := runOrderProgram(e, data), runOrderProgram(ref, data)
		if e.Processed != ref.processed {
			t.Fatalf("processed %d, reference %d", e.Processed, ref.processed)
		}
		if len(got) != len(want) {
			t.Fatalf("trace length %d, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trace diverged at %d: engine %d, reference %d", i, got[i], want[i])
			}
		}
	})
}
