package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchActor is the allocation-free self-rearming event chain: the
// engine-throughput benchmarks measure pure queue+dispatch cost.
type benchActor struct {
	e         *Engine
	delay     Time
	remaining int
}

func (a *benchActor) Act(int, any) {
	if a.remaining > 0 {
		a.remaining--
		a.e.PostAfter(a.delay, a, 0, nil)
	}
}

func benchEngineThroughput(b *testing.B, delay Time) {
	b.ReportAllocs()
	e := NewEngine()
	a := &benchActor{e: e, delay: delay, remaining: b.N}
	e.PostAfter(delay, a, 0, nil)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineThroughput measures raw event-processing rate, the
// simulator's fundamental cost unit (short-delay events: the ring path).
func BenchmarkEngineThroughput(b *testing.B) { benchEngineThroughput(b, 1) }

// BenchmarkEngineThroughputFar schedules every event beyond the calendar
// window, forcing the overflow-heap path.
func BenchmarkEngineThroughputFar(b *testing.B) {
	benchEngineThroughput(b, calWindow+1)
}

// BenchmarkPoolAcquire is single reservations on a 20-unit pool, the
// NoC link bank of the 10-PE chip (about two million Acquires per
// simulated run).
func BenchmarkPoolAcquire(b *testing.B) {
	p := NewPool("x", 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(Time(i), 4)
	}
}

// BenchmarkPoolAcquireSingle is the 1-unit (pipeline-stage) fast path.
func BenchmarkPoolAcquireSingle(b *testing.B) {
	p := NewPool("x", 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Acquire(Time(i), 4)
	}
}

// batchStep is one AcquireBatch call of a replayed trace.
type batchStep struct {
	now Time
	k   int
}

// batchTrace draws a seeded sequence of batches for an n-unit bank of
// dur-cycle units in the PE compute stage's measured mix: k from 4–63,
// and at batch time all units idle (~40%), some idle (~30%), or all busy
// (~30%, horizons spread by earlier uneven batches). It returns the
// trace; replaying it on a fresh pool reproduces the same states.
func batchTrace(n int, dur Time, steps int) []batchStep {
	rng := rand.New(rand.NewSource(7))
	p := NewPool("trace", n)
	trace := make([]batchStep, steps)
	for i := range trace {
		lo, hi := p.NextFree(), Time(p.keys[n-1]>>p.shift)
		var now Time
		switch r := rng.Intn(10); {
		case r < 4:
			now = hi + 1 + Time(rng.Intn(16))
		case r < 7 && hi > lo:
			now = lo + 1 + Time(rng.Int63n(hi-lo))
		default:
			now = lo - Time(rng.Intn(8))
		}
		trace[i] = batchStep{now: now, k: 4 + rng.Intn(60)}
		p.AcquireBatch(now, dur, trace[i].k)
	}
	return trace
}

// BenchmarkPoolAcquireBatch replays batchTrace on the PE's two banks:
// 12 dividers at 1 cycle per line and 24 IUs at 4 cycles per segment
// pair.
func BenchmarkPoolAcquireBatch(b *testing.B) {
	for _, bank := range []struct {
		n   int
		dur Time
	}{{12, 1}, {24, 4}} {
		b.Run(fmt.Sprintf("n=%d", bank.n), func(b *testing.B) {
			trace := batchTrace(bank.n, bank.dur, 4096)
			p := NewPool("x", bank.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(trace)
				if j == 0 && i > 0 {
					b.StopTimer()
					p = NewPool("x", bank.n)
					b.StartTimer()
				}
				p.AcquireBatch(trace[j].now, bank.dur, trace[j].k)
			}
		})
	}
}

// BenchmarkPoolAcquireDynamic is the MSHR-style open-ended reservation.
func BenchmarkPoolAcquireDynamic(b *testing.B) {
	p := NewPool("x", 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unit, start := p.AcquireDynamic(Time(i))
		p.ReleaseAt(unit, start+20)
	}
}
