// Package simtest holds test helpers for models that run on a sim.Engine.
package simtest

import (
	"math/rand"
	"sort"

	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// Noise is a seeded background actor for event-order differentials. It
// shares an engine with a model and keeps eight foreign events queued for
// as long as the model has events of its own. Each re-arm draws a fresh
// delay: mostly short hops, some same-cycle ties, and now and then one at
// the far edge of the calendar queue's ring window or in the far future,
// in the queue's overflow heap. A slot that draws a long delay sits out
// for a window or more, so the queue swings between dense noise and
// near-idle stretches where the overflow heap holds the only foreign
// events. The model never sees these events, so its run must be
// bit-identical with and without Noise apart from the engine's
// processed-event count; any other difference is an ordering bug in the
// engine.
//
// Noise lands on odd cycles only, so it never ties with a sampler that
// ticks on even cycles (any even sampling interval from time 0), and
// Discount can remove its share of a sampled event count exactly.
type Noise struct {
	eng     *sim.Engine
	rng     *rand.Rand
	farOnly bool
	out     int        // noise events queued
	fired   []sim.Time // delivery cycles, non-decreasing
}

// ringWindow is the span of the calendar queue's ring (sim's calWindow):
// events at least this far ahead go to the overflow heap.
const ringWindow = 8192

// NewNoise queues the first noise events on eng; call it before the model
// runs. With farOnly set, every delay is far, so all noise traffic passes
// through the overflow heap.
func NewNoise(eng *sim.Engine, seed int64, farOnly bool) *Noise {
	n := &Noise{eng: eng, rng: rand.New(rand.NewSource(seed)), farOnly: farOnly}
	for i := 0; i < 8; i++ {
		n.post()
	}
	return n
}

func (n *Noise) post() {
	var d sim.Time
	switch k := n.rng.Intn(16); {
	case n.farOnly || k == 0:
		d = ringWindow + sim.Time(n.rng.Intn(4*ringWindow))
	case k == 1:
		d = ringWindow - 3 + sim.Time(n.rng.Intn(4))
	case k < 4:
		d = 0
	default:
		d = 1 + sim.Time(n.rng.Intn(64))
	}
	n.eng.Post((n.eng.Now()+d)|1, n, 0, nil)
	n.out++
}

// Act delivers one noise event and replaces it while the model still has
// events queued; once only noise is left, the noise drains.
func (n *Noise) Act(int, any) {
	n.out--
	n.fired = append(n.fired, n.eng.Now())
	if n.eng.Pending() > n.out {
		n.post()
	}
}

// Fired reports how many noise events the engine delivered.
func (n *Noise) Fired() int64 { return int64(len(n.fired)) }

// Discount subtracts from each sample of ts's engine/events series, taken
// at an even cycle, the noise events delivered before that cycle.
func (n *Noise) Discount(ts *telemetry.TimeSeries) {
	vals := Col(ts, "engine/events")
	for i, c := range ts.Cycles {
		vals[i] -= int64(sort.Search(len(n.fired), func(k int) bool { return int64(n.fired[k]) >= c }))
	}
}

// Col returns the values of ts's series named name (nil if absent).
func Col(ts *telemetry.TimeSeries, name string) []int64 {
	for _, s := range ts.Series {
		if s.Name == name {
			return s.Vals
		}
	}
	return nil
}
