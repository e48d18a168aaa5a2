package mem

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// refCache is the timestamp-LRU cache the recency-ordered way words
// replaced, kept as the reference: an int64 tag, an int64 LRU stamp and
// a dirty flag per line, a clock ticked on every access, and a victim
// scan that takes the first invalid way or the smallest stamp.
type refCache struct {
	cfg    CacheConfig
	sets   int
	tags   []int64 // sets*ways; -1 = invalid
	stamps []int64
	dirty  []bool
	clock  int64
	parent Level
	mshrs  *sim.Pool

	LatHist *telemetry.Histogram

	Accesses, Hits, Misses, MissFetches, Writebacks int64
	LatSum                                          sim.Time
	// winSum and winCount accumulate latency since the last roll, the
	// windowed accumulator the cache itself no longer keeps.
	winSum, winCount int64
}

// addLatency records one access's latency in the total and the window.
func (c *refCache) addLatency(lat sim.Time) {
	c.LatSum += lat
	c.winSum += lat
	c.winCount++
}

// rollWindow returns the window's average latency (ok false when the
// window is empty) and starts a new window.
func (c *refCache) rollWindow() (avg float64, ok bool) {
	if c.winCount > 0 {
		avg, ok = float64(c.winSum)/float64(c.winCount), true
	}
	c.winSum, c.winCount = 0, 0
	return avg, ok
}

func newRefCache(cfg CacheConfig, parent Level) *refCache {
	lines := cfg.SizeKB * 1024 / LineBytes
	c := &refCache{
		cfg:    cfg,
		sets:   lines / cfg.Ways,
		tags:   make([]int64, lines),
		stamps: make([]int64, lines),
		dirty:  make([]bool, lines),
		parent: parent,
	}
	for i := range c.tags {
		c.tags[i] = -1
	}
	if cfg.MSHRs > 0 {
		c.mshrs = sim.NewPool(cfg.Name+"-mshr", cfg.MSHRs)
	}
	return c
}

func (c *refCache) Access(now sim.Time, addr int64, write bool) sim.Time {
	line := addr >> LineShift
	set := int(line) & (c.sets - 1)
	base := set * c.cfg.Ways
	c.clock++
	c.Accesses++
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line {
			c.stamps[base+w] = c.clock
			if write {
				c.dirty[base+w] = true
			}
			c.Hits++
			c.addLatency(c.cfg.HitLat)
			c.LatHist.Observe(int64(c.cfg.HitLat))
			return now + c.cfg.HitLat
		}
	}
	c.Misses++
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == -1 {
			victim = base + w
			break
		}
		if c.stamps[base+w] < c.stamps[victim] {
			victim = base + w
		}
	}
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
	if c.tags[victim] != -1 && c.dirty[victim] {
		c.parent.Access(fetchDone, c.tags[victim]<<LineShift, true)
		c.Writebacks++
	}
	c.tags[victim] = line
	c.stamps[victim] = c.clock
	c.dirty[victim] = write
	done := fetchDone + c.cfg.HitLat
	c.addLatency(done - now)
	c.LatHist.Observe(int64(done - now))
	return done
}

// parentAccess is one access a cache made to the level below it.
type parentAccess struct {
	now   sim.Time
	addr  int64
	write bool
}

// recorder is a parent level that records every access and answers with
// an address-dependent latency, so the order and timing of fetches and
// writebacks both show in the completion times.
type recorder struct{ log []parentAccess }

func (r *recorder) Access(now sim.Time, addr int64, write bool) sim.Time {
	r.log = append(r.log, parentAccess{now, addr, write})
	return now + 20 + sim.Time(addr>>LineShift%13)
}

// cacheStep is one access of a differential stream: a line address, a
// write flag and the cycles to advance before issuing it.
type cacheStep struct {
	line  int64
	write bool
	gap   sim.Time
}

// compareWithReference runs steps through the way-word cache and the
// timestamp reference, each in front of its own recorder, and fails on
// the first completion time, counter, latency total, window latency,
// parent access or latency histogram that differs. The window latency
// is taken every 64 accesses the way the locality monitor takes it: a
// delta of the cache's LatSum and Accesses totals since the last roll.
func compareWithReference(t *testing.T, cfg CacheConfig, steps []cacheStep) {
	t.Helper()
	var gotP, refP recorder
	c := MustCache(cfg, &gotP)
	ref := newRefCache(cfg, &refP)
	c.LatHist, ref.LatHist = telemetry.NewHistogram(), telemetry.NewHistogram()
	var now sim.Time
	var latAtRoll, accAtRoll int64
	for i, s := range steps {
		now += s.gap
		addr := s.line << LineShift
		seen := len(gotP.log)
		got, want := c.Access(now, addr, s.write), ref.Access(now, addr, s.write)
		if got != want {
			t.Fatalf("%s: access %d (line %#x write %v at %d): done %d, reference %d", cfg.Name, i, s.line, s.write, now, got, want)
		}
		if len(gotP.log) != len(refP.log) {
			t.Fatalf("%s: access %d: %d parent accesses, reference %d", cfg.Name, i, len(gotP.log), len(refP.log))
		}
		for j := seen; j < len(gotP.log); j++ {
			if gotP.log[j] != refP.log[j] {
				t.Fatalf("%s: access %d: parent access %d = %+v, reference %+v", cfg.Name, i, j, gotP.log[j], refP.log[j])
			}
		}
		type counts struct{ acc, hit, miss, fetch, wb, lat int64 }
		g := counts{c.Accesses, c.Hits, c.Misses, c.MissFetches, c.Writebacks, c.LatSum}
		r := counts{ref.Accesses, ref.Hits, ref.Misses, ref.MissFetches, ref.Writebacks, ref.LatSum}
		if g != r {
			t.Fatalf("%s: access %d: counters %+v, reference %+v", cfg.Name, i, g, r)
		}
		if !contains(c, addr) {
			t.Fatalf("%s: access %d: line %#x not resident after access", cfg.Name, i, s.line)
		}
		if i%64 == 0 {
			n := c.Accesses - accAtRoll
			ga, gok := sim.Ratio(c.LatSum-latAtRoll, n), n > 0
			latAtRoll, accAtRoll = c.LatSum, c.Accesses
			ra, rok := ref.rollWindow()
			if ga != ra || gok != rok {
				t.Fatalf("%s: access %d: window latency %v/%v, reference %v/%v", cfg.Name, i, ga, gok, ra, rok)
			}
		}
	}
	c.FoldHits()
	if !c.LatHist.Equal(ref.LatHist) || c.LatHist.Min() != ref.LatHist.Min() || c.LatHist.Max() != ref.LatHist.Max() {
		t.Fatalf("%s: latency histogram differs:\n got: %s\n ref: %s", cfg.Name, c.LatHist, ref.LatHist)
	}
}

// referenceConfigs are the cache shapes the differential covers: a
// direct-mapped cache, the Table 3 L1's 4 ways with 8 MSHRs, and the
// Table 3 L2's 8 ways with write-allocate-no-fetch (all shrunk so a
// short stream thrashes them).
var referenceConfigs = []CacheConfig{
	{Name: "direct", SizeKB: 1, Ways: 1, HitLat: 1},
	{Name: "l1", SizeKB: 2, Ways: 4, HitLat: 2, WriteAllocNoFetch: true, MSHRs: 8},
	{Name: "l2", SizeKB: 4, Ways: 8, HitLat: 18, WriteAllocNoFetch: true},
}

// TestCacheMatchesTimestampLRU pins the recency-ordered way words to
// the timestamp-LRU reference access by access: a strictly increasing
// clock orders a set's lines exactly as recency does, so both evict the
// same line and the parent sees the same accesses at the same times.
func TestCacheMatchesTimestampLRU(t *testing.T) {
	streams := map[string]func(rng *rand.Rand, cfg CacheConfig) cacheStep{
		"mixed": func(rng *rand.Rand, cfg CacheConfig) cacheStep {
			line := rng.Int63n(int64(cfg.SizeKB) * 1024 / LineBytes * 4)
			return cacheStep{line, rng.Intn(3) == 0, sim.Time(rng.Intn(6))}
		},
		"write-heavy": func(rng *rand.Rand, cfg CacheConfig) cacheStep {
			line := rng.Int63n(int64(cfg.SizeKB) * 1024 / LineBytes * 2)
			return cacheStep{line, rng.Intn(4) != 0, sim.Time(rng.Intn(3))}
		},
		"one-set-thrash": func(rng *rand.Rand, cfg CacheConfig) cacheStep {
			// Ways+2 lines that all map to set 3, in random order:
			// most accesses evict the set's LRU line.
			sets := int64(cfg.SizeKB) * 1024 / LineBytes / int64(cfg.Ways)
			line := 3 + sets*rng.Int63n(int64(cfg.Ways)+2)
			return cacheStep{line, rng.Intn(2) == 0, sim.Time(rng.Intn(2))}
		},
		"burst": func(rng *rand.Rand, cfg CacheConfig) cacheStep {
			// Same-cycle misses queue on the MSHRs.
			line := rng.Int63n(1 << 12)
			return cacheStep{line, false, 0}
		},
	}
	for _, cfg := range referenceConfigs {
		for name, next := range streams {
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				steps := make([]cacheStep, 4000)
				for i := range steps {
					steps[i] = next(rng, cfg)
				}
				compareWithReference(t, cfg, steps)
			})
		}
	}
}

// FuzzCacheMatchesReference drives fuzzed streams through the
// differential: byte 0 picks the cache shape, then each 4-byte record is
// a line (2 bytes), a write flag and a gap.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 1, 0, 1, 0})
	f.Add([]byte{1, 0, 3, 1, 2, 0, 3, 0, 0, 9, 3, 1, 1, 0, 3, 0, 0})
	f.Add([]byte{2, 4, 0, 1, 0, 4, 1, 1, 0, 4, 2, 0, 5, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := referenceConfigs[int(data[0])%len(referenceConfigs)]
		var steps []cacheStep
		for rec := data[1:]; len(rec) >= 4; rec = rec[4:] {
			steps = append(steps, cacheStep{
				line:  int64(binary.LittleEndian.Uint16(rec)),
				write: rec[2]&1 != 0,
				gap:   sim.Time(rec[3] % 8),
			})
		}
		compareWithReference(t, cfg, steps)
	})
}
