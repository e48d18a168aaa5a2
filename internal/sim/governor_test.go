package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// chain schedules a self-rescheduling event advancing one cycle per hop,
// n hops total.
func chain(e *Engine, n int) {
	var hop Func
	remaining := n
	hop = func() {
		if remaining--; remaining > 0 {
			e.PostAfter(1, hop, 0, nil)
		}
	}
	e.PostAfter(1, hop, 0, nil)
}

func TestRunGovernedDrains(t *testing.T) {
	e := NewEngine()
	chain(e, 100)
	if err := e.RunGoverned(context.Background(), Budget{}); err != nil {
		t.Fatalf("unbudgeted run errored: %v", err)
	}
	if e.Pending() != 0 || e.Now() != 100 {
		t.Fatalf("engine state after drain: pending=%d now=%d", e.Pending(), e.Now())
	}
}

func TestRunGovernedCancellation(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	const poll = 64
	fired := 0
	var hop Func
	hop = func() {
		fired++
		if fired == poll { // cancel mid-run, strictly before the next checkpoint
			cancel()
		}
		e.PostAfter(1, hop, 0, nil)
	}
	e.PostAfter(1, hop, 0, nil)
	err := e.RunGoverned(ctx, Budget{PollEvents: poll})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	// The cancellation must be observed within one poll interval.
	if fired > 2*poll {
		t.Fatalf("run processed %d events after cancel at %d; poll interval %d not honored", fired, poll, poll)
	}
}

func TestRunGovernedPreCancelled(t *testing.T) {
	e := NewEngine()
	e.PostAfter(1, Func(func() { t.Fatal("event ran despite pre-cancelled context") }), 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunGoverned(ctx, Budget{}); !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestRunGovernedEventBudget(t *testing.T) {
	e := NewEngine()
	chain(e, 1000)
	err := e.RunGoverned(context.Background(), Budget{MaxEvents: 10})
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
	if e.Now() != 10 {
		t.Fatalf("stopped at cycle %d, want 10", e.Now())
	}
	// The budget is per-call, not cumulative: a fresh call gets a fresh
	// allowance.
	err = e.RunGoverned(context.Background(), Budget{MaxEvents: 10})
	if !errors.Is(err, ErrEventBudget) {
		t.Fatalf("second call err = %v, want ErrEventBudget", err)
	}
	if e.Now() != 20 {
		t.Fatalf("second call stopped at cycle %d, want 20", e.Now())
	}
}

func TestRunGovernedExactBudgetDrain(t *testing.T) {
	// Exactly MaxEvents events in the queue: the run drains cleanly.
	e := NewEngine()
	chain(e, 10)
	if err := e.RunGoverned(context.Background(), Budget{MaxEvents: 10}); err != nil {
		t.Fatalf("exact-budget drain errored: %v", err)
	}
}

func TestRunGovernedDeadline(t *testing.T) {
	e := NewEngine()
	chain(e, 1000)
	err := e.RunGoverned(context.Background(), Budget{Deadline: 50})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline error text %q must mention the deadline", err)
	}
	if e.Now() != 50 {
		t.Fatalf("stopped at cycle %d, want 50", e.Now())
	}
}

func TestRunGovernedWallBudget(t *testing.T) {
	e := NewEngine()
	var hop Func
	hop = func() {
		time.Sleep(100 * time.Microsecond)
		e.PostAfter(1, hop, 0, nil)
	}
	e.PostAfter(1, hop, 0, nil)
	err := e.RunGoverned(context.Background(), Budget{MaxWall: 5 * time.Millisecond, PollEvents: 8})
	if !errors.Is(err, ErrWallBudget) {
		t.Fatalf("err = %v, want ErrWallBudget", err)
	}
}

func TestRunGovernedNoProgress(t *testing.T) {
	e := NewEngine()
	var spin Func
	spin = func() { e.PostAfter(0, spin, 0, nil) } // zero-delay livelock
	e.PostAfter(1, spin, 0, nil)
	err := e.RunGoverned(context.Background(), Budget{MaxStall: 100})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
}

func TestSnapshotAndBlocked(t *testing.T) {
	e := NewEngine()
	e.PostAfter(5, Func(func() {}), 0, nil)
	snap := e.Snapshot()
	if snap.Now != 0 || snap.PendingEvents != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	s := NewSemaphore("slots", 2)
	if !s.TryAcquire(0, 2) {
		t.Fatal("acquire failed")
	}
	s.AcquireOrWait(0, 1, Func(func() {}), 0, nil)
	snap.Resources = append(snap.Resources, s.Snap())
	blocked := snap.Blocked()
	if len(blocked) != 1 || blocked[0].Name != "slots" || blocked[0].Waiters != 1 {
		t.Fatalf("blocked = %+v", blocked)
	}
	if got := snap.String(); !strings.Contains(got, "slots") || !strings.Contains(got, "waiter") {
		t.Fatalf("snapshot rendering missing resource detail:\n%s", got)
	}
}

func TestErrorRendering(t *testing.T) {
	snap := &Snapshot{Now: 42, PendingEvents: 0, Resources: []ResourceSnap{
		{Name: "spm", Kind: "semaphore", Cap: 4, InUse: 4, Waiters: 3},
	}}
	ie := &InvariantError{Op: "accel: run", PanicValue: "token over-release", Stack: "goroutine 1 ...", Snapshot: snap}
	if !strings.Contains(ie.Error(), "invariant violation") || !strings.Contains(ie.Error(), "token over-release") {
		t.Fatalf("InvariantError.Error() = %q", ie.Error())
	}
	if d := ie.Details(); !strings.Contains(d, "spm") || !strings.Contains(d, "stack:") {
		t.Fatalf("InvariantError.Details() missing snapshot/stack:\n%s", d)
	}
	de := &DeadlockError{Op: "accel: run", Snapshot: snap}
	if msg := de.Error(); !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "spm") {
		t.Fatalf("DeadlockError.Error() = %q", msg)
	}
}

type doublePerturb struct{ calls int }

func (d *doublePerturb) ServiceTime(pool string, dur Time) Time {
	d.calls++
	return dur * 2
}

func TestPoolPerturb(t *testing.T) {
	p := NewPool("iu", 1)
	pr := &doublePerturb{}
	p.SetPerturb(pr)
	start := p.Acquire(0, 10)
	if start != 0 {
		t.Fatalf("start = %d", start)
	}
	if free := p.NextFree(); free != 20 {
		t.Fatalf("perturbed reservation ends at %d, want 20", free)
	}
	if pr.calls != 1 {
		t.Fatalf("perturber called %d times, want 1", pr.calls)
	}
	p.SetPerturb(nil)
	p.Acquire(20, 10)
	if free := p.NextFree(); free != 30 {
		t.Fatalf("unperturbed reservation ends at %d, want 30", free)
	}
}
