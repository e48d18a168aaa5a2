package sim

import "testing"

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

func BenchmarkPoolAcquire(b *testing.B) {
	p := NewPool("x", 24)
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

// BenchmarkPoolAcquireBatch reserves IU-bank-sized batches — the PE
// compute stage's pattern (one reservation per segment pair at a common
// issue time).
func BenchmarkPoolAcquireBatch(b *testing.B) {
	p := NewPool("x", 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AcquireBatch(Time(i)*8, 4, 32)
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
