// Package sim provides the discrete-event simulation core: an event
// engine with a deterministic total order, resource pools with busy-until
// semantics and utilization accounting, and counting semaphores with
// waiter queues.
//
// The accelerator model is event-driven rather than cycle-ticked: a task's
// pipeline phases are scheduled as timed events, and contended resources
// (intersection units, execution slots, DRAM channels, NoC links) are
// modeled as pools whose Acquire returns the earliest start time. This
// keeps whole-evaluation-grid simulations tractable while preserving the
// contention behaviour the paper's results depend on.
//
// # Event engine internals
//
// Events are intrusive, free-listed nodes owned by the engine: scheduling
// allocates from an engine-local freelist (refilled in blocks) and every
// executed event is recycled, so steady-state simulation schedules with
// zero heap allocations. There is one callback form, the non-capturing
// Actor — a receiver interface plus an integer op code and a
// pointer-sized argument — which allocates nothing at the call site;
// Func adapts a plain func() for the rare closure-shaped caller.
//
// One queue implements the deterministic total order (time, sequence):
// a hierarchical calendar queue, O(1) for the short-delay events that
// dominate simulation. See calendar.go for the structure and the
// determinism argument.
package sim

// Time is a cycle count.
type Time = int64

// Actor is the non-capturing event callback: the engine invokes
// Act(op, arg) when the event fires. A component implements one Act
// method and dispatches on its own op codes; arg carries an optional
// pointer payload (storing a pointer in an interface does not allocate,
// so actor events are allocation-free end to end, unlike closures).
type Actor interface {
	Act(op int, arg any)
}

// Func adapts a func() to Actor, ignoring op and arg. A func value is
// pointer-shaped, so posting a prebuilt Func allocates nothing; only a
// closure created per call costs an allocation (at the caller).
type Func func()

// Act implements Actor.
func (f Func) Act(int, any) { f() }

// event is one scheduled callback. Nodes are engine-owned and recycled
// through a freelist; next links either a calendar-bucket FIFO chain or
// the freelist.
type event struct {
	at   Time
	seq  int64
	next *event

	act Actor
	op  int
	arg any
}

// before reports whether e precedes o in the deterministic total order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Engine is a deterministic discrete-event simulator. Events scheduled
// for the same time run in scheduling order.
type Engine struct {
	q   calendarQueue
	now Time
	seq int64
	// Processed counts executed events (a cheap progress/cost metric).
	Processed int64

	// Event-node freelist: recycled nodes first, then a bump-pointer
	// block so cold starts allocate in batches rather than per event.
	free  *event
	block []event
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

const eventBlock = 256

func (e *Engine) alloc(t Time) *event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		if len(e.block) == 0 {
			e.block = make([]event, eventBlock)
		}
		ev = &e.block[0]
		e.block = e.block[1:]
	}
	e.seq++
	ev.at = t
	ev.seq = e.seq
	return ev
}

func (e *Engine) recycle(ev *event) {
	ev.act = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

// Post schedules a.Act(op, arg) to run at absolute time t. Scheduling in
// the past is a modeling bug; it panics to surface the error immediately.
func (e *Engine) Post(t Time, a Actor, op int, arg any) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	ev := e.alloc(t)
	ev.act = a
	ev.op = op
	ev.arg = arg
	e.q.push(ev)
}

// PostAfter schedules a.Act(op, arg) to run d cycles from now.
func (e *Engine) PostAfter(d Time, a Actor, op int, arg any) {
	e.Post(e.now+d, a, op, arg)
}

// Step runs the earliest pending event. It reports false when no events
// remain.
func (e *Engine) Step() bool {
	ev := e.q.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.Processed++
	// Copy the callback out and recycle before running: the handler may
	// schedule new events, which then reuse the hot node immediately.
	act, op, arg := ev.act, ev.op, ev.arg
	e.recycle(ev)
	act.Act(op, arg)
	return true
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.len() }
