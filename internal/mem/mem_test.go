package mem

import (
	"math/rand"
	"testing"

	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// flat is a fixed-latency bottom level for cache unit tests.
type flat struct {
	lat      sim.Time
	accesses int
	writes   int
}

func (f *flat) Access(now sim.Time, addr int64, write bool) sim.Time {
	f.accesses++
	if write {
		f.writes++
	}
	return now + f.lat
}

// contains reports whether the line holding addr is resident in c.
func contains(c *Cache, addr int64) bool {
	line := addr >> LineShift
	set := int(line & c.setMask)
	key := uint32(line>>c.setBits+1) << 1
	for _, w := range c.ways[set*c.cfg.Ways : (set+1)*c.cfg.Ways] {
		if w&^1 == key {
			return true
		}
	}
	return false
}

func smallCache(t *testing.T, parent Level) *Cache {
	t.Helper()
	// 4 KB, 4-way, 64B lines => 64 lines, 16 sets.
	return NewCache(CacheConfig{Name: "t", SizeKB: 4, Ways: 4, HitLat: 2, WriteAllocNoFetch: true}, parent)
}

func TestCacheHitMiss(t *testing.T) {
	f := &flat{lat: 100}
	c := smallCache(t, f)
	d1 := c.Access(0, 0x1000, false)
	if d1 != 0+2+100+2 {
		t.Fatalf("cold miss latency = %d", d1)
	}
	d2 := c.Access(d1, 0x1000, false)
	if d2 != d1+2 {
		t.Fatalf("hit latency = %d (from %d)", d2-d1, d1)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
	if !contains(c, 0x1000) || contains(c, 0x2000) {
		t.Fatal("Contains misreports")
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	f := &flat{lat: 10}
	c := smallCache(t, f) // 16 sets, 4 ways
	// Five lines mapping to the same set (stride = 16 lines * 64B = 1KB).
	addrs := []int64{0, 1 << 10, 2 << 10, 3 << 10, 4 << 10}
	now := sim.Time(0)
	for _, a := range addrs[:4] {
		now = c.Access(now, a, false)
	}
	// Touch addr 0 to make line 1<<10 the LRU victim.
	now = c.Access(now, 0, false)
	now = c.Access(now, addrs[4], false) // evicts 1<<10
	if !contains(c, 0) || contains(c, 1<<10) || !contains(c, 4<<10) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
	_ = now
}

func TestCacheWriteAllocNoFetch(t *testing.T) {
	f := &flat{lat: 100}
	c := smallCache(t, f)
	d := c.Access(0, 0x40, true)
	if d != 4 { // lookup + fill, no parent fetch
		t.Fatalf("write-alloc-no-fetch latency = %d, want 4", d)
	}
	if f.accesses != 0 {
		t.Fatal("write miss fetched from parent")
	}
	// Read after write must hit.
	if d2 := c.Access(d, 0x40, false); d2 != d+2 {
		t.Fatalf("read-after-write latency = %d", d2-d)
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	f := &flat{lat: 10}
	c := smallCache(t, f)
	now := c.Access(0, 0, true) // dirty line in set 0
	// Fill set 0's remaining ways, then one more to evict the dirty line.
	for i := 1; i <= 4; i++ {
		now = c.Access(now, int64(i)<<10, false)
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks)
	}
	if f.writes != 1 {
		t.Fatalf("parent writes = %d, want 1", f.writes)
	}
}

// TestCacheConfigValidation: Validate refuses a geometry NewCache cannot
// build, and NewCache panics on one rather than build it.
func TestCacheConfigValidation(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  CacheConfig
	}{
		{"non-divisible ways", CacheConfig{Name: "bad", SizeKB: 4, Ways: 3, HitLat: 1}},
		{"non-power-of-two sets", CacheConfig{Name: "bad", SizeKB: 6, Ways: 4, HitLat: 1}},
		{"no sets", CacheConfig{Name: "bad", SizeKB: 0, Ways: 4, HitLat: 1}},
	} {
		if err := c.cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %s", c.name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache built %s", c.name)
				}
			}()
			NewCache(c.cfg, &flat{})
		}()
	}
}

// TestCacheWindowLatencyDetectsThrashing takes the window latency the
// way the locality monitor does, as a delta of the LatSum and Accesses
// totals since the reader's last roll.
func TestCacheWindowLatencyDetectsThrashing(t *testing.T) {
	f := &flat{lat: 200}
	c := smallCache(t, f)
	// Stream far more lines than capacity: all misses.
	now := sim.Time(0)
	for i := 0; i < 256; i++ {
		now = c.Access(now, int64(i)<<LineShift, false)
	}
	if avg := sim.Ratio(c.LatSum, c.Accesses); c.Accesses != 256 || avg < 100 {
		t.Fatalf("window latency = %v over %d accesses, want high", avg, c.Accesses)
	}
	// Roll: immediately re-reading the last lines gives pure hits.
	latAt, accAt := c.LatSum, c.Accesses
	for i := 0; i < 64; i++ {
		now = c.Access(now, int64(i+192)<<LineShift, false)
	}
	if n, avg := c.Accesses-accAt, sim.Ratio(c.LatSum-latAt, c.Accesses-accAt); n != 64 || avg != 2 {
		t.Fatalf("post-roll window latency = %v over %d accesses, want 2 over 64", avg, n)
	}
}

func TestDRAMRowBuffer(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// Two accesses to the same row on the same channel/bank: second is a
	// row hit and cheaper.
	a1 := d.Access(0, 0, false)
	a2 := d.Access(a1, 0, false)
	if (a2 - a1) >= a1 {
		t.Fatalf("row hit (%d) not cheaper than row miss (%d)", a2-a1, a1)
	}
	if d.RowHits != 1 || d.RowMisses != 1 {
		t.Fatalf("rowHits=%d rowMisses=%d", d.RowHits, d.RowMisses)
	}
}

func TestDRAMChannelQueueing(t *testing.T) {
	cfg := DefaultDRAMConfig()
	d := NewDRAM(cfg)
	// Hammer a single channel: all requests issued at t=0 to line 0 must
	// serialize on the channel's burst occupancy. (Completions are not
	// monotone in issue order — a row hit issued behind a row miss can
	// finish earlier — so only the aggregate is checked.)
	var last sim.Time
	for i := 0; i < 50; i++ {
		if done := d.Access(0, 0, false); done > last {
			last = done
		}
	}
	// 50 bursts of 4 cycles on one channel: completion must reflect
	// serialization (≥ 200 cycles), not just latency.
	if last < 50*cfg.BurstCycles {
		t.Fatalf("no channel serialization: last=%d", last)
	}
	if d.BusyCycles() != 50*cfg.BurstCycles {
		t.Fatalf("busy cycles = %d", d.BusyCycles())
	}
	if d.BandwidthUtilization(last) <= 0 {
		t.Fatal("bandwidth utilization not reported")
	}
}

func TestDRAMParallelChannels(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// Four accesses on four different channels at t=0 all start at 0.
	var worst sim.Time
	for ch := int64(0); ch < 4; ch++ {
		done := d.Access(0, ch<<LineShift, false)
		if done > worst {
			worst = done
		}
	}
	single := d.Access(0, 4<<LineShift, false) // channel 0 again: queued
	if single <= worst-48 {
		t.Log("channel contention check is loose; ok")
	}
}

func TestNoCTransferAndPath(t *testing.T) {
	noc := NewNoC(NoCConfig{Links: 1, HopLat: 5, FlitCycles: 2})
	d1 := noc.Transfer(0, 10) // 20 occupancy + 5 hop
	if d1 != 25 {
		t.Fatalf("transfer done = %d, want 25", d1)
	}
	d2 := noc.Transfer(0, 1) // queued behind first: starts at 20
	if d2 != 20+2+5 {
		t.Fatalf("queued transfer done = %d, want 27", d2)
	}
	if noc.LinesMoved != 11 || noc.Messages != 2 {
		t.Fatalf("traffic accounting: %d lines, %d msgs", noc.LinesMoved, noc.Messages)
	}

	f := &flat{lat: 10}
	p := noc.NewPath(f)
	done := p.Access(100, 0x40, false)
	// link start ≥ 100 (after queue at 22? pool unit free at 22 < 100 so
	// starts at 100): 100+2 (flit) +5 (hop) +10 (level) +5 (hop back).
	if done != 100+2+5+10+5 {
		t.Fatalf("path access done = %d", done)
	}
}

// TestNoCSendSplit pins the split protocol of §4.1: two zero-line
// control messages, then the payload, and the payload's arrival time.
func TestNoCSendSplit(t *testing.T) {
	noc := NewNoC(NoCConfig{Links: 1, HopLat: 5, FlitCycles: 2})
	// One link: control messages hold it [0,1) and [1,2); the 7-line
	// payload holds it [2,16) and lands one hop later.
	if got := noc.SendSplit(0, 7); got != 16+5 {
		t.Fatalf("payload arrival = %d, want 21", got)
	}
	if noc.Messages != 3 || noc.LinesMoved != 7 {
		t.Fatalf("after one split: %d msgs, %d lines; want 3, 7", noc.Messages, noc.LinesMoved)
	}
	// An empty candidate set still sends all three messages; the payload
	// occupies the link for the one-cycle minimum.
	if got := noc.SendSplit(100, 0); got != 102+1+5 {
		t.Fatalf("empty payload arrival = %d, want 108", got)
	}
	if noc.Messages != 6 || noc.LinesMoved != 7 {
		t.Fatalf("after two splits: %d msgs, %d lines; want 6, 7", noc.Messages, noc.LinesMoved)
	}
}

func TestAccessRange(t *testing.T) {
	f := &flat{lat: 7}
	if got := AccessRange(f, 0, 0, 0, false); got != 0 {
		t.Fatalf("empty range done = %d", got)
	}
	// 130 bytes spanning 3 lines from line-aligned base.
	AccessRange(f, 0, 0, 130, false)
	if f.accesses != 3 {
		t.Fatalf("accesses = %d, want 3", f.accesses)
	}
	// Unaligned start: 64 bytes starting at offset 32 touches 2 lines.
	f.accesses = 0
	AccessRange(f, 0, 32, 64, false)
	if f.accesses != 2 {
		t.Fatalf("unaligned accesses = %d, want 2", f.accesses)
	}
}

func TestAddressMap(t *testing.T) {
	m := NewAddressMap(1000, 100)
	if m.SetStride != 448 { // 400 bytes rounded to 64
		t.Fatalf("stride = %d", m.SetStride)
	}
	if m.CSRAddr(10) != m.CSRBase+40 {
		t.Fatal("CSRAddr math")
	}
	if m.SetAddr(2)-m.SetAddr(1) != m.SetStride {
		t.Fatal("SetAddr stride")
	}
	if m.SetAddr(0) <= m.CSRAddr(1000) {
		t.Fatal("regions overlap")
	}
	z := NewAddressMap(0, 0)
	if z.SetStride != LineBytes {
		t.Fatalf("zero stride = %d", z.SetStride)
	}
}

func TestMSHRBoundsMissParallelism(t *testing.T) {
	// With 2 MSHRs and a 100-cycle parent, 6 concurrent misses must
	// serialize into 3 waves.
	f := &flat{lat: 100}
	c := NewCache(CacheConfig{Name: "m", SizeKB: 4, Ways: 4, HitLat: 2, MSHRs: 2}, f)
	var last sim.Time
	for i := int64(0); i < 6; i++ {
		if d := c.Access(0, i<<LineShift, false); d > last {
			last = d
		}
	}
	// Waves at ~0,100,200: final completion ≥ 300.
	if last < 300 {
		t.Fatalf("6 misses on 2 MSHRs finished at %d, want >= 300", last)
	}
	// Unbounded MSHRs: all in parallel.
	f2 := &flat{lat: 100}
	c2 := NewCache(CacheConfig{Name: "m2", SizeKB: 4, Ways: 4, HitLat: 2}, f2)
	last = 0
	for i := int64(0); i < 6; i++ {
		if d := c2.Access(0, i<<LineShift, false); d > last {
			last = d
		}
	}
	if last > 110 {
		t.Fatalf("unbounded misses serialized: %d", last)
	}
}

// TestFoldHitsMatchesPerAccessObserve keeps the per-access observation
// as the reference: observing every Access's returned latency, hits
// included, must give the same histogram as the cache's own (misses as
// they happen, hits folded in), once the hits are folded. Folds land at
// random points of a random stream over an L1 → L2 → DRAM hierarchy with
// bounded MSHRs and dirty writebacks, so the total cannot depend on
// where they land.
func TestFoldHitsMatchesPerAccessObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dram := NewDRAM(DefaultDRAMConfig())
	l2 := NewCache(CacheConfig{Name: "l2", SizeKB: 16, Ways: 4, HitLat: 18, WriteAllocNoFetch: true}, dram)
	l1 := NewCache(CacheConfig{Name: "l1", SizeKB: 4, Ways: 4, HitLat: 2, WriteAllocNoFetch: true, MSHRs: 4}, l2)
	l1.LatHist, l2.LatHist = telemetry.NewHistogram(), telemetry.NewHistogram()
	ref := telemetry.NewHistogram()
	var now sim.Time
	for i := 0; i < 20000; i++ {
		addr := rng.Int63n(1<<16) &^ (LineBytes - 1)
		if rng.Intn(4) == 0 {
			addr = rng.Int63n(1<<12) &^ (LineBytes - 1) // a hot region that hits
		}
		done := l1.Access(now, addr, rng.Intn(3) == 0)
		ref.Observe(int64(done - now))
		now += sim.Time(rng.Intn(8))
		if rng.Intn(500) == 0 {
			l1.FoldHits()
		}
	}
	if l1.LatHist.Count() == ref.Count() {
		t.Fatal("every hit was observed before the final fold; hits are not being folded")
	}
	l1.FoldHits()
	l1.FoldHits() // a second fold with no new hits adds nothing
	if !l1.LatHist.Equal(ref) || l1.LatHist.Min() != ref.Min() || l1.LatHist.Max() != ref.Max() {
		t.Fatalf("folded histogram differs from per-access reference:\n folded: %s\n ref:    %s", l1.LatHist, ref)
	}
	if l1.Hits == 0 || l1.Misses == 0 {
		t.Fatalf("stream lacks hits (%d) or misses (%d)", l1.Hits, l1.Misses)
	}
	l2.FoldHits()
	if got, want := l2.LatHist.Count(), l2.Accesses; got != want {
		t.Fatalf("l2 histogram count %d, want one per access (%d)", got, want)
	}
}
