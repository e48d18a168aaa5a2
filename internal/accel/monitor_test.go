package accel

import (
	"math"
	"testing"

	"shogun/internal/core"
	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/pe"
)

// TestMonitorRestartWindowAfterAdoption pins the first locality-monitor
// sample of a helper PE that adopted a §4.1 split while its monitor was
// off. The PE restarts the monitor when the adopted root kicks it, and
// the restart rolls both the IU and the L1 window, so this sample covers
// only the period since the restart. An L1 window left unrolled would
// also hold the L1 accesses made while the monitor was off, among them
// the adopted candidate set written into the helper's L1 before it
// starts: that window read 2.094488188976378 cycles here, and the
// rolled one reads 2.0952380952380953.
func TestMonitorRestartWindowAfterAdoption(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.6, 0.15, 0.15, 5)
	s, err := pattern.Build(pattern.FourClique())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 8
	cfg.EnableSplitting = true
	cfg.PE.MonitorPeriod = 256
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Step event by event. A tick overwrites LastSample, so a sentinel
	// planted before each step shows which PEs ticked. A tick that
	// leaves its PE idle without work turns the monitor off, and work
	// arriving turns it back on at the PE's next scheduling attempt.
	n := len(a.pes)
	off := make([]bool, n)
	for i := range off {
		off[i] = true // not started before the first kick
	}
	received := make([]int64, n)
	adoptedAt := make([]int64, n) // cycle of an adoption while off; 0 = none
	sentinel := pe.MonitorSample{L1AvgLat: -1}
	type restart struct {
		pe            int
		adopted, tick int64
		sample        pe.MonitorSample
	}
	var first *restart
	var restarts int
	a.Start()
	for {
		for _, p := range a.pes {
			p.LastSample = sentinel
		}
		if !a.eng.Step() {
			break
		}
		now := int64(a.eng.Now())
		for i, p := range a.pes {
			if got := p.Policy().(*core.Tree).SplitsReceived; got != received[i] {
				received[i] = got
				if off[i] {
					adoptedAt[i] = now
				}
			}
			if p.LastSample == sentinel {
				off[i] = off[i] && p.Idle() && !p.HasWork()
				continue
			}
			if adoptedAt[i] > 0 {
				restarts++
				if first == nil {
					first = &restart{i, adoptedAt[i], now, p.LastSample}
				}
				adoptedAt[i] = 0
			}
			off[i] = p.Idle() && !p.HasWork()
		}
	}
	if err := a.Drained(); err != nil {
		t.Fatal(err)
	}
	if first == nil {
		t.Fatal("no helper adopted a split with its monitor off; the test proves nothing")
	}
	type pin struct {
		pe, restarts  int
		adopted, tick int64
		lat, util     uint64 // float64 bits
		hasData       bool
	}
	got := pin{first.pe, restarts, first.adopted, first.tick,
		math.Float64bits(first.sample.L1AvgLat), math.Float64bits(first.sample.IUUtil), first.sample.L1HasData}
	// lat is 2.0952380952380953 cycles; util is 0.18033854166666666.
	want := pin{pe: 7, restarts: 92, adopted: 10242, tick: 10498,
		lat: 0x4000c30c30c30c31, util: 0x3fc7155555555555, hasData: true}
	if got != want {
		t.Errorf("first post-restart sample of an adopting helper:\n got %+v\nwant %+v", got, want)
	}
}
