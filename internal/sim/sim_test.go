package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	rec := func(v int) Func { return func() { got = append(got, v) } }
	e.Post(5, rec(5), 0, nil)
	e.Post(1, rec(1), 0, nil)
	e.Post(3, rec(3), 0, nil)
	e.Post(3, rec(4), 0, nil) // same time: scheduling order
	e.Run()
	want := []int{1, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d", e.Now())
	}
	if e.Processed != 4 {
		t.Fatalf("Processed = %d", e.Processed)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Post(1, Func(func() {
		e.PostAfter(2, Func(func() {
			hits++
			if e.Now() != 3 {
				t.Errorf("nested event at %d, want 3", e.Now())
			}
		}), 0, nil)
	}), 0, nil)
	e.Run()
	if hits != 1 {
		t.Fatal("nested event did not run")
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.Post(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Post(5, Func(func() {}), 0, nil)
	}), 0, nil)
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := map[int]bool{}
	for _, at := range []Time{1, 2, 10} {
		at := at
		e.Post(at, Func(func() { ran[int(at)] = true }), 0, nil)
	}
	if !e.RunUntil(5) {
		t.Fatal("RunUntil drained unexpectedly")
	}
	if !ran[1] || !ran[2] || ran[10] {
		t.Fatalf("ran = %v", ran)
	}
	if e.RunUntil(100) {
		t.Fatal("RunUntil should have drained")
	}
}

func TestPoolSingleUnitSerializes(t *testing.T) {
	p := NewPool("x", 1)
	s1 := p.Acquire(0, 10)
	s2 := p.Acquire(0, 10)
	s3 := p.Acquire(25, 10)
	if s1 != 0 || s2 != 10 || s3 != 25 {
		t.Fatalf("starts = %d,%d,%d", s1, s2, s3)
	}
	if p.Busy() != 30 {
		t.Fatalf("busy = %d", p.Busy())
	}
}

func TestPoolParallelUnits(t *testing.T) {
	p := NewPool("x", 3)
	starts := []Time{p.Acquire(0, 10), p.Acquire(0, 10), p.Acquire(0, 10), p.Acquire(0, 10)}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	want := []Time{0, 0, 0, 10}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v", starts)
		}
	}
	if got := p.Utilization(20); got != 40.0/60.0 {
		t.Fatalf("utilization = %v", got)
	}
	if p.NextFree() != 10 {
		t.Fatalf("NextFree = %d", p.NextFree())
	}
}

// Property: k unit-duration acquisitions on an n-unit pool starting at 0
// finish by ceil(k/n) and keep busy = k.
func TestPoolThroughputProperty(t *testing.T) {
	f := func(kRaw, nRaw uint8) bool {
		k := int(kRaw%100) + 1
		n := int(nRaw%16) + 1
		p := NewPool("x", n)
		var maxEnd Time
		for i := 0; i < k; i++ {
			s := p.Acquire(0, 1)
			if s+1 > maxEnd {
				maxEnd = s + 1
			}
		}
		want := Time((k + n - 1) / n)
		return maxEnd == want && p.Busy() == Time(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreBasics(t *testing.T) {
	s := NewSemaphore("slots", 2)
	if !s.TryAcquire(0, 1) || !s.TryAcquire(0, 1) {
		t.Fatal("initial acquires failed")
	}
	if s.TryAcquire(0, 1) {
		t.Fatal("over-capacity acquire succeeded")
	}
	woken := 0
	if s.AcquireOrWait(0, 1, Func(func() { woken++ }), 0, nil) {
		t.Fatal("AcquireOrWait should have queued")
	}
	s.Release(10, 1)
	if woken != 1 {
		t.Fatalf("woken = %d", woken)
	}
	if s.Available() != 1 {
		t.Fatalf("available = %d", s.Available())
	}
	if s.Peak() != 2 {
		t.Fatalf("peak = %d", s.Peak())
	}
}

func TestSemaphoreOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	NewSemaphore("x", 1).Release(0, 1)
}

func TestSemaphoreOccupancyIntegral(t *testing.T) {
	s := NewSemaphore("x", 4)
	s.TryAcquire(0, 2)  // 2 units held over [0,10)
	s.Release(10, 1)    // 1 unit held over [10,20)
	s.TryAcquire(20, 3) // 4 units held over [20,30)
	got := s.AvgOccupancy(30)
	want := (2.0*10 + 1.0*10 + 4.0*10) / 30.0
	if got != want {
		t.Fatalf("AvgOccupancy = %v, want %v", got, want)
	}
}

func TestWindowStat(t *testing.T) {
	var w WindowStat
	w.Add(10)
	w.Add(20)
	if avg, ok := w.WindowAvg(); !ok || avg != 15 {
		t.Fatalf("window avg = %v ok=%v", avg, ok)
	}
	w.Roll()
	if _, ok := w.WindowAvg(); ok {
		t.Fatal("rolled window still has samples")
	}
	w.AddN(30, 3)
	if avg, _ := w.WindowAvg(); avg != 10 {
		t.Fatalf("window avg after AddN = %v", avg)
	}
	if w.Avg() != 60.0/5.0 {
		t.Fatalf("total avg = %v", w.Avg())
	}
}

func TestCounterAndRatio(t *testing.T) {
	var c Counter
	c.Inc(5)
	c.Roll()
	c.Inc(3)
	if c.Total != 8 || c.Window() != 3 {
		t.Fatalf("counter = %+v win %d", c.Total, c.Window())
	}
	if Ratio(1, 0) != 0 || Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio misbehaved")
	}
}

func TestAcquireDynamic(t *testing.T) {
	p := NewPool("x", 2)
	u1, s1 := p.AcquireDynamic(10)
	if s1 != 10 {
		t.Fatalf("start = %d", s1)
	}
	p.ReleaseAt(u1, 50)
	u2, s2 := p.AcquireDynamic(0)
	if s2 != 0 || u2 == u1 {
		t.Fatalf("second unit: u=%d s=%d", u2, s2)
	}
	p.ReleaseAt(u2, 20)
	// Third acquisition must wait for the earlier-free unit (t=20).
	_, s3 := p.AcquireDynamic(5)
	if s3 != 20 {
		t.Fatalf("third start = %d, want 20", s3)
	}
	if p.Busy() != 60 {
		t.Fatalf("busy = %d, want 60", p.Busy())
	}
	// ReleaseAt earlier than current until is a no-op.
	p.ReleaseAt(u1, 1)
	if p.Busy() != 60 {
		t.Fatal("backwards ReleaseAt changed busy")
	}
}

func TestEnginePendingAndStep(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine")
	}
	e.Post(5, Func(func() {}), 0, nil)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if !e.Step() || e.Pending() != 0 {
		t.Fatal("Step bookkeeping broken")
	}
}

// TestPostFuncZeroAlloc pins the closure adapter's cost: a func value is
// pointer-shaped, so posting a prebuilt Func stores it in the Actor
// interface without boxing, and the event node comes off the freelist.
func TestPostFuncZeroAlloc(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := Func(func() { fired++ })
	e.PostAfter(1, fn, 0, nil) // cold start: allocates the node block
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.PostAfter(1, fn, 0, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Post of a prebuilt Func: %v allocs/op, want 0", allocs)
	}
	if fired != 102 {
		t.Fatalf("fired %d events, want 102", fired)
	}
}
