package main

import (
	"fmt"
	"runtime"
	"time"
)

// A shared host's speed drifts from minute to minute: frequency changes
// and other tenants' load on the same cores stretch the CPU time of the
// same work by a quarter or more between runs. The benchmark therefore
// calls a fixed reference kernel, which calls no code of the repository,
// beside the measured work, and reports host times at the speed at which
// the kernel takes refSeconds:
//
//	reported = measured × refSeconds / kernel time
//
// where CPU times are divided by the kernel's CPU time and wall times by
// its wall time. On the simulation workloads each operation (and each
// set-up) is divided by the kernel call just before it; on serve-mix,
// whose requests overlap, the whole run is divided by the kernel's median
// over the run.
// A change to the program moves the reported time as it moves the
// measured one; a host running faster or slower moves the kernel too and
// cancels out. Each run prints the kernel's median time.
const refSeconds = 0.0150 // about the kernel's CPU time on a quiet 2-vCPU host

// hostRef collects the reference kernel's times over a run.
type hostRef struct {
	k     *refKernel
	cpu   []float64   // CPU seconds per call
	walls []float64   // wall seconds per call
	start []time.Time // when each call started
	sum   uint64      // the kernel's result, the same on every call
}

func newHostRef() *hostRef { return &hostRef{k: newRefKernel()} }

// sample times one call of the kernel on the calling thread and returns
// its CPU and wall seconds.
func (h *hostRef) sample() (cpu, wall float64, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, c0 := time.Now(), threadCPUTime()
	got := h.k.run()
	cpu, wall = (threadCPUTime() - c0).Seconds(), time.Since(t0).Seconds()
	h.cpu = append(h.cpu, cpu)
	h.walls = append(h.walls, wall)
	h.start = append(h.start, t0)
	if len(h.cpu) == 1 {
		h.sum = got
	} else if got != h.sum {
		err = fmt.Errorf("reference kernel returned %d, earlier %d", got, h.sum)
	}
	return cpu, wall, err
}

// samples times n calls of the kernel.
func (h *hostRef) samples(n int) error {
	for range n {
		if _, _, err := h.sample(); err != nil {
			return err
		}
	}
	return nil
}

// scale is the factor that brings a CPU time measured anywhere in this
// run to the reference speed.
func (h *hostRef) scale() float64 { return refSeconds / median(h.cpu) }

// scaleAround is the CPU factor from the calls that started within span
// of t, or from all calls when none did.
func (h *hostRef) scaleAround(t time.Time, span time.Duration) float64 {
	var near []float64
	for i, s := range h.start {
		if d := s.Sub(t); -span <= d && d <= span {
			near = append(near, h.cpu[i])
		}
	}
	if len(near) == 0 {
		return h.scale()
	}
	return refSeconds / median(near)
}

// note records the kernel's median times.
func (h *hostRef) note(r *report) {
	r.notef("reference kernel %.4g ms CPU, %.4g ms wall (medians of %d calls), %.4g ms at reference speed: host times scaled by about %.4f",
		median(h.cpu)*1e3, median(h.walls)*1e3, len(h.cpu), refSeconds*1e3, h.scale())
}

// atRef brings each time xs[i] to the reference speed by the kernel time
// refs[i] measured beside it.
func atRef(xs, refs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * refSeconds / refs[i]
	}
	return out
}

// refKernel is the reference: a mix of what the simulator spends its time
// on, with fixed inputs and no allocation — a pointer chase through a
// 256 KB random cycle (irregular access that stays in L2, so where the
// process's pages land does not change its time, as it did at 1 MB), a
// binary-heap event queue and merge intersections of sorted lists. Across
// processes on a 2-vCPU VM whose speed drifted, its time followed that
// of a sim-as-4cl run with a correlation of 0.86, and dividing by it cut
// the run-to-run spread of that run's CPU time from 0.15 to 0.04.
type refKernel struct {
	next []int32  // a random cyclic permutation
	a, b []int32  // sorted lists
	heap []uint64 // event-queue storage
}

const (
	refCycle   = 1 << 16
	refChase   = 300_000
	refEvents  = 200_000
	refHeapMin = 2048
	refLists   = 4096
	refMerges  = 300
)

// xorshift is the kernel's fixed pseudo-random sequence.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

func newRefKernel() *refKernel {
	rnd := xorshift(88172645463325252)
	perm := make([]int32, refCycle)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := refCycle - 1; i > 0; i-- {
		j := int(rnd.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	k := &refKernel{next: make([]int32, refCycle), heap: make([]uint64, 0, refEvents)}
	for i := range perm {
		k.next[perm[i]] = perm[(i+1)%refCycle]
	}
	for _, list := range []*[]int32{&k.a, &k.b} {
		s := make([]int32, refLists)
		v := int32(0)
		for i := range s {
			v += int32(1 + rnd.next()%6)
			s[i] = v
		}
		*list = s
	}
	return k
}

func (k *refKernel) run() uint64 {
	var sum uint64
	p := int32(0)
	for range refChase {
		p = k.next[p]
		sum += uint64(p)
	}
	rnd := xorshift(sum | 1)
	h := k.heap[:0]
	for range refEvents {
		x := rnd.next()
		if len(h) < refHeapMin || x&1 == 0 {
			h = append(h, x>>20)
			for c := len(h) - 1; c > 0; {
				up := (c - 1) / 2
				if h[up] <= h[c] {
					break
				}
				h[up], h[c] = h[c], h[up]
				c = up
			}
			continue
		}
		sum += h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		for c := 0; ; {
			l := 2*c + 1
			if l >= len(h) {
				break
			}
			if l+1 < len(h) && h[l+1] < h[l] {
				l++
			}
			if h[c] <= h[l] {
				break
			}
			h[c], h[l] = h[l], h[c]
			c = l
		}
	}
	for i := range refMerges {
		a, b := k.a[i%7:], k.b
		x, y := 0, 0
		for x < len(a) && y < len(b) {
			switch {
			case a[x] < b[y]:
				x++
			case a[x] > b[y]:
				y++
			default:
				sum++
				x++
				y++
			}
		}
	}
	return sum
}
