// Package mem models the accelerator's memory system (§3.1 of the paper):
// per-PE scratchpads and private L1 caches, a shared L2, a DDR4-like DRAM
// behind it, and the NoC connecting PEs to the L2 and to each other.
//
// Caches are functional (real tags, real LRU state) with timing: an access
// returns its completion time, including queueing delay at DRAM channels
// and NoC links. Graph CSR data is cached only in L2 (streaming access
// pattern); intermediate results live in L1 and spill to L2, matching the
// paper's memory-system description.
package mem

import (
	"fmt"
	"math/bits"

	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// LineBytes is the cache line size used throughout (Table 3).
const LineBytes = 64

// LineShift converts byte addresses to line addresses.
const LineShift = 6

// Level is one level of the memory hierarchy; Access returns the time the
// requested line is available (read) or accepted (write).
type Level interface {
	Access(now sim.Time, addr int64, write bool) sim.Time
}

// AccessRange issues one access per line of [addr, addr+bytes) at the same
// time and returns the last completion — modeling the parallel line
// fetches a PE's dispatch unit issues for one vertex set.
func AccessRange(l Level, now sim.Time, addr int64, bytes int64, write bool) sim.Time {
	if bytes <= 0 {
		return now
	}
	first := addr >> LineShift
	last := (addr + bytes - 1) >> LineShift
	done := now
	for line := first; line <= last; line++ {
		if d := l.Access(now, line<<LineShift, write); d > done {
			done = d
		}
	}
	return done
}

// Lines reports how many cache lines [addr, addr+bytes) spans — the
// number of Access calls AccessRange issues for the same range.
func Lines(addr, bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	return (addr+bytes-1)>>LineShift - addr>>LineShift + 1
}

// DRAMConfig describes the DDR4-like main memory model. The defaults
// approximate DDR4-3200 over 4 channels at a 1 GHz accelerator clock, the
// Ramulator configuration in Table 3.
type DRAMConfig struct {
	Channels     int
	BanksPerChan int
	// RowLines is the row-buffer size in cache lines.
	RowLines int64
	// RowHitLat / RowMissLat are access latencies (cycles) on a row
	// buffer hit / miss, excluding queueing.
	RowHitLat  sim.Time
	RowMissLat sim.Time
	// BurstCycles is the channel occupancy per line transfer; it bounds
	// per-channel bandwidth.
	BurstCycles sim.Time
}

// DefaultDRAMConfig returns the Table 3 approximation.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Channels:     4,
		BanksPerChan: 16,
		RowLines:     32, // 2 KB rows
		RowHitLat:    22,
		RowMissLat:   48,
		BurstCycles:  4,
	}
}

// DRAM is the bottom memory level.
type DRAM struct {
	cfg      DRAMConfig
	channels []*sim.Pool
	lastRow  [][]int64

	Reads     int64
	Writes    int64
	RowHits   int64
	RowMisses int64
	// LatSum totals every access's latency; its count is Reads+Writes.
	LatSum sim.Time
}

// NewDRAM builds a DRAM model.
func NewDRAM(cfg DRAMConfig) *DRAM {
	d := &DRAM{cfg: cfg}
	d.channels = make([]*sim.Pool, cfg.Channels)
	d.lastRow = make([][]int64, cfg.Channels)
	for i := range d.channels {
		d.channels[i] = sim.NewPool(fmt.Sprintf("dram-ch%d", i), 1)
		d.lastRow[i] = make([]int64, cfg.BanksPerChan)
		for b := range d.lastRow[i] {
			d.lastRow[i][b] = -1
		}
	}
	return d
}

// SetPerturb installs a service-time perturber on every DRAM channel
// (chaos-harness latency jitter: perturbed burst reservations shift
// queueing delay for later accesses on the same channel).
func (d *DRAM) SetPerturb(pr sim.Perturber) {
	for _, ch := range d.channels {
		ch.SetPerturb(pr)
	}
}

// Access serves one line.
func (d *DRAM) Access(now sim.Time, addr int64, write bool) sim.Time {
	line := addr >> LineShift
	ch := int(line) & (d.cfg.Channels - 1)
	if d.cfg.Channels&(d.cfg.Channels-1) != 0 {
		ch = int(line % int64(d.cfg.Channels))
	}
	bank := int((line / int64(d.cfg.Channels)) % int64(d.cfg.BanksPerChan))
	row := line / (int64(d.cfg.Channels) * d.cfg.RowLines)

	lat := d.cfg.RowMissLat
	if d.lastRow[ch][bank] == row {
		lat = d.cfg.RowHitLat
		d.RowHits++
	} else {
		d.lastRow[ch][bank] = row
		d.RowMisses++
	}
	start := d.channels[ch].Acquire(now, d.cfg.BurstCycles)
	done := start + lat + d.cfg.BurstCycles
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	d.LatSum += done - now
	return done
}

// QueueDepth reports how many channels are still reserved past `now` —
// the row of busy DRAM channels a telemetry gauge sees at an epoch
// boundary.
func (d *DRAM) QueueDepth(now sim.Time) int {
	n := 0
	for _, ch := range d.channels {
		n += ch.InFlightAt(now)
	}
	return n
}

// BusyCycles reports total channel busy cycles (bandwidth consumption).
func (d *DRAM) BusyCycles() sim.Time {
	var b sim.Time
	for _, c := range d.channels {
		b += c.Busy()
	}
	return b
}

// BandwidthUtilization reports channel occupancy over elapsed cycles.
func (d *DRAM) BandwidthUtilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(d.BusyCycles()) / (float64(elapsed) * float64(d.cfg.Channels))
}

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	Name   string
	SizeKB int
	Ways   int
	HitLat sim.Time
	// WriteAllocNoFetch treats write misses as full-line allocations
	// without fetching from the parent (correct for freshly produced
	// intermediate sets, which are always written whole).
	WriteAllocNoFetch bool
	// MSHRs bounds outstanding misses (miss-level parallelism). Zero
	// means unbounded. Under cache thrashing a bounded MSHR file is what
	// turns a low hit rate into a steep performance loss — the
	// mechanism behind the paper's Fig. 3(b)/Fig. 14.
	MSHRs int
}

// Cache is a set-associative write-back cache with LRU replacement.
//
// Each way is one word, (tag+1)<<1 | dirty, where tag = line >> log2(sets)
// (the set is implied by the way's position) and 0 is an invalid way.
// A set's ways are kept most-recently-used first, so the LRU line is
// always the last way: 4 host bytes per line. A tag must stay below
// 2^31-1; MaxLine reports the largest line a cache can hold.
type Cache struct {
	cfg     CacheConfig
	setBits uint
	setMask int64
	ways    []uint32 // sets*ways, each set MRU first; 0 = invalid
	parent  Level
	mshrs   *sim.Pool

	// LatHist, when non-nil, receives every access latency (telemetry
	// histogram; nil keeps the hot path observation-free). Misses are
	// observed as they happen; hits all cost the constant HitLat and
	// reach it only through FoldHits.
	LatHist *telemetry.Histogram
	// hitsFolded is Hits at the last FoldHits.
	hitsFolded int64

	Accesses int64
	Hits     int64
	Misses   int64
	// MissFetches counts misses that fetched the line from the parent
	// level (write misses under WriteAllocNoFetch allocate without
	// fetching, so MissFetches ≤ Misses).
	MissFetches int64
	Writebacks  int64
	// LatSum totals every access's latency; its count is Accesses.
	LatSum sim.Time
}

// NewCache builds a cache in front of parent. The line count
// (SizeKB*1024/64) must be divisible by Ways into a power-of-two set
// count.
func NewCache(cfg CacheConfig, parent Level) (*Cache, error) {
	lines := cfg.SizeKB * 1024 / LineBytes
	if cfg.Ways <= 0 || lines%cfg.Ways != 0 {
		return nil, fmt.Errorf("mem: cache %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	sets := lines / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	c := &Cache{
		cfg:     cfg,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		setMask: int64(sets - 1),
		ways:    make([]uint32, lines),
		parent:  parent,
	}
	if cfg.MSHRs > 0 {
		c.mshrs = sim.NewPool(cfg.Name+"-mshr", cfg.MSHRs)
	}
	return c, nil
}

// MustCache is NewCache for static configurations.
func MustCache(cfg CacheConfig, parent Level) *Cache {
	c, err := NewCache(cfg, parent)
	if err != nil {
		panic(err)
	}
	return c
}

// maxTag is the largest tag a way word holds: tag+1 shifted left by the
// dirty bit must fit in 32 bits.
const maxTag = 1<<31 - 2

// MaxLine reports the largest line address the cache can hold. Access
// does not check it; a machine's builder checks its address map against
// it once.
func (c *Cache) MaxLine() int64 {
	return maxTag<<c.setBits | c.setMask
}

// Access serves one line read or write.
func (c *Cache) Access(now sim.Time, addr int64, write bool) sim.Time {
	line := addr >> LineShift
	set := line & c.setMask
	key := uint32(line>>c.setBits+1) << 1
	n := c.cfg.Ways
	ways := c.ways[int(set)*n : int(set)*n+n]
	c.Accesses++

	// Hit path: move the line to the front.
	for i, w := range ways {
		if w&^1 == key {
			if write {
				w |= 1
			}
			for ; i > 0; i-- {
				ways[i] = ways[i-1]
			}
			ways[0] = w
			c.Hits++
			c.LatSum += c.cfg.HitLat
			return now + c.cfg.HitLat
		}
	}
	c.Misses++

	fetchDone := now + c.cfg.HitLat
	if !write || !c.cfg.WriteAllocNoFetch {
		c.MissFetches++
		issueAt := now + c.cfg.HitLat
		var unit int
		if c.mshrs != nil {
			unit, issueAt = c.mshrs.AcquireDynamic(issueAt)
		}
		fetchDone = c.parent.Access(issueAt, addr, false)
		if c.mshrs != nil {
			c.mshrs.ReleaseAt(unit, fetchDone)
		}
	}
	// The victim is the last way: invalid while the set has room, the
	// LRU line after. A dirty eviction's writeback occupies the parent
	// off the critical path (after the fill) but consumes real bandwidth.
	if victim := ways[n-1]; victim&1 != 0 {
		tag := int64(victim>>1) - 1
		c.parent.Access(fetchDone, (tag<<c.setBits|set)<<LineShift, true)
		c.Writebacks++
	}
	for i := n - 1; i > 0; i-- {
		ways[i] = ways[i-1]
	}
	if write {
		key |= 1
	}
	ways[0] = key

	done := fetchDone + c.cfg.HitLat
	c.LatSum += done - now
	c.LatHist.Observe(int64(done - now))
	return done
}

// FoldHits records the hits since the last fold into LatHist as one
// ObserveN of the hit latency, which no perturber changes, so after a
// final fold the histogram equals one that observed every hit. Call it
// on the goroutine that drives the cache (Hits is a plain counter).
func (c *Cache) FoldHits() {
	c.LatHist.ObserveN(int64(c.cfg.HitLat), c.Hits-c.hitsFolded)
	c.hitsFolded = c.Hits
}

// MSHRInFlight reports the MSHR entries still occupied past `now` (0 when
// the MSHR file is unbounded) — a telemetry gauge for miss-level
// parallelism pressure.
func (c *Cache) MSHRInFlight(now sim.Time) int {
	if c.mshrs == nil {
		return 0
	}
	return c.mshrs.InFlightAt(now)
}

// Contains reports whether the line holding addr is resident (test hook).
func (c *Cache) Contains(addr int64) bool {
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

// HitRate reports the all-time hit rate.
func (c *Cache) HitRate() float64 {
	return sim.Ratio(c.Hits, c.Hits+c.Misses)
}
