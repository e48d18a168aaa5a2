package sim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// refPool is the reference model of Pool's contract: a linear scan for
// the (until, unit)-minimal unit on every reservation. It shares no code
// with Pool's sorted keys or AcquireBatch's water-fill.
type refPool struct {
	until    []Time
	busy     Time
	acquires int64
}

func newRefPool(n int) *refPool { return &refPool{until: make([]Time, n)} }

func (r *refPool) earliest() int {
	best := 0
	for u, t := range r.until {
		if t < r.until[best] {
			best = u
		}
	}
	return best
}

func (r *refPool) Acquire(now, dur Time) Time {
	u := r.earliest()
	start := max(r.until[u], now)
	r.until[u] = start + dur
	r.busy += dur
	r.acquires++
	return start
}

func (r *refPool) AcquireDynamic(now Time) (int, Time) {
	u := r.earliest()
	start := max(r.until[u], now)
	r.until[u] = start
	r.acquires++
	return u, start
}

func (r *refPool) ReleaseAt(u int, t Time) {
	if t > r.until[u] {
		r.busy += t - r.until[u]
		r.until[u] = t
	}
}

// checkPool asserts p's keys are strictly ascending and name every unit
// once, and that p matches ref unit by unit.
func checkPool(t *testing.T, p *Pool, ref *refPool, ctx string) {
	t.Helper()
	seen := make([]bool, len(p.keys))
	for i, key := range p.keys {
		if i > 0 && key <= p.keys[i-1] {
			t.Fatalf("%s: keys not strictly ascending at %d: %v", ctx, i, p.keys)
		}
		u := key & p.mask
		if int(u) >= len(seen) || seen[u] {
			t.Fatalf("%s: key %d names unit %d twice or out of range", ctx, i, u)
		}
		seen[u] = true
		if got := Time(key >> p.shift); got != ref.until[u] {
			t.Fatalf("%s: unit %d horizon %d, reference %d", ctx, u, got, ref.until[u])
		}
	}
	if p.Busy() != ref.busy || p.Acquires() != ref.acquires {
		t.Fatalf("%s: busy %d vs %d, acquires %d vs %d", ctx, p.Busy(), ref.busy, p.Acquires(), ref.acquires)
	}
}

// refBatch is k successive reference Acquires, returning the last
// completion (now when k is zero), AcquireBatch's contract.
func refBatch(r *refPool, now, dur Time, k int) Time {
	done := now
	for i := 0; i < k; i++ {
		done = r.Acquire(now, dur) + dur
	}
	return done
}

// TestPoolAcquireBatchEquivalence checks AcquireBatch against the k
// successive Acquire calls it replaces, comparing every unit's horizon
// and the key order after each batch. It covers pool sizes from the
// single-unit pipeline stage past one mark word, all-idle, partly idle
// and busy pools with horizons spread wider than dur, now going
// backwards, dur 0, k far above n, and interleaved single and dynamic
// reservations.
func TestPoolAcquireBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, units := range []int{1, 2, 3, 8, 12, 20, 24, 64, 65, 100} {
		p := NewPool("bat", units)
		ref := newRefPool(units)
		var now Time
		for step := 0; step < 600; step++ {
			lo, hi := p.NextFree(), Time(p.keys[units-1]>>p.shift)
			switch rng.Intn(5) {
			case 0: // all idle
				now = hi + 1 + Time(rng.Intn(20))
			case 1: // partly idle
				now = lo + Time(rng.Int63n(hi-lo+1))
			case 2: // all busy
				now = lo - Time(rng.Intn(10))
			case 3: // backwards
				now -= Time(rng.Intn(30))
			default:
				now += Time(rng.Intn(12))
			}
			dur := Time(rng.Intn(10))
			if rng.Intn(4) == 0 {
				// Wide durations spread horizons beyond the next
				// batch's dur, forcing lagging joins.
				dur = Time(rng.Intn(200))
			}
			k := rng.Intn(8 * units)
			if rng.Intn(3) == 0 {
				k = rng.Intn(64)
			}
			want := refBatch(ref, now, dur, k)
			if got := p.AcquireBatch(now, dur, k); got != want {
				t.Fatalf("units=%d step=%d now=%d dur=%d k=%d: batch done %d, sequential done %d",
					units, step, now, dur, k, got, want)
			}
			checkPool(t, p, ref, "after batch")
			switch rng.Intn(3) {
			case 0:
				if a, b := p.Acquire(now, dur), ref.Acquire(now, dur); a != b {
					t.Fatalf("units=%d: interleaved acquire %d vs %d", units, a, b)
				}
			case 1:
				ua, sa := p.AcquireDynamic(now)
				ub, sb := ref.AcquireDynamic(now)
				if ua != ub || sa != sb {
					t.Fatalf("units=%d: dynamic (%d,%d) vs (%d,%d)", units, ua, sa, ub, sb)
				}
				end := sa + Time(rng.Intn(40))
				p.ReleaseAt(ua, end)
				ref.ReleaseAt(ub, end)
			}
			checkPool(t, p, ref, "after interleave")
			if a, b := p.InFlightAt(now), inFlightRef(ref, now); a != b {
				t.Fatalf("units=%d: in flight %d vs %d", units, a, b)
			}
		}
	}
}

func inFlightRef(r *refPool, now Time) int {
	n := 0
	for _, u := range r.until {
		if u > now {
			n++
		}
	}
	return n
}

// TestPoolIdleTieRule pins the rule that separates the water-fill from a
// naive "k smallest of {max(until, now) + j·dur}": idle units take their
// first pick in the order of their old horizons, not by unit index.
func TestPoolIdleTieRule(t *testing.T) {
	p := NewPool("x", 3)
	p.Acquire(0, 5) // unit 0 until 5
	p.Acquire(0, 2) // unit 1 until 2
	p.Acquire(0, 9) // unit 2 until 9
	// At now=10 all are idle; one pick goes to unit 1 (oldest horizon),
	// the next to unit 0, both starting at 10.
	if done := p.AcquireBatch(10, 3, 2); done != 13 {
		t.Fatalf("done %d, want 13", done)
	}
	// Unit 2 is the only one left free at 10.
	if u, s := p.AcquireDynamic(10); u != 2 || s != 10 {
		t.Fatalf("next unit %d at %d, want unit 2 at 10", u, s)
	}
}

// FuzzPoolAcquireBatch interprets the input as a pool size and a program
// of batch, single, dynamic and release operations with signed now
// deltas, and checks every step against the reference model.
func FuzzPoolAcquireBatch(f *testing.F) {
	f.Add([]byte{24, 0, 40, 4, 0, 0, 60, 4, 3, 1, 0, 1, 250})
	f.Add([]byte{12, 0, 63, 1, 0, 2, 5, 0, 200, 0, 9, 0, 1})
	f.Add([]byte{1, 0, 7, 0, 0, 3, 1, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0])%64 + 1
		p, ref := NewPool("fuzz", n), newRefPool(n)
		var now Time
		for ops := data[1:]; len(ops) >= 4; ops = ops[4:] {
			now += Time(int8(ops[3]))
			k, dur := int(ops[1]), Time(ops[2]%32)
			if ops[2] >= 224 {
				dur = Time(ops[2]) * 3
			}
			switch ops[0] % 4 {
			case 0, 1:
				want := refBatch(ref, now, dur, k)
				if got := p.AcquireBatch(now, dur, k); got != want {
					t.Fatalf("n=%d now=%d dur=%d k=%d: batch %d, sequential %d", n, now, dur, k, got, want)
				}
			case 2:
				if a, b := p.Acquire(now, dur), ref.Acquire(now, dur); a != b {
					t.Fatalf("acquire %d vs %d", a, b)
				}
			case 3:
				ua, sa := p.AcquireDynamic(now)
				ub, sb := ref.AcquireDynamic(now)
				if ua != ub || sa != sb {
					t.Fatalf("dynamic (%d,%d) vs (%d,%d)", ua, sa, ub, sb)
				}
				end := sa + Time(binary.LittleEndian.Uint16([]byte{ops[1], ops[2]})%97)
				p.ReleaseAt(ua, end)
				ref.ReleaseAt(ub, end)
			}
			checkPool(t, p, ref, "step")
		}
	})
}
