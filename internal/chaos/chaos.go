// Package chaos provides deterministic, seeded fault injection for the
// accelerator simulator: latency jitter on FU/DRAM/NoC pool service
// times, forced conservative-mode flips, and forced task-tree splits.
//
// The point is metamorphic testing. The simulator decouples the data
// computation (which embeddings exist) from the timing model (when work
// happens), so any perturbation of timing or scheduling must leave
// embedding counts bit-exact, conserve every token and semaphore, and
// never deadlock. An injector is a pure function of its seed and the
// (deterministic) event-loop order, so a failing seed replays exactly.
package chaos

import (
	"math/rand"

	"shogun/internal/accel"
	"shogun/internal/sim"
)

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every random choice; a fixed seed replays a run.
	Seed int64
	// JitterPct inflates pool service times by up to this percentage
	// (uniform per reservation; 0 disables jitter).
	JitterPct int
	// FlipPeriod is the cadence of forced conservative-mode flips on a
	// randomly chosen PE (0 disables flips).
	FlipPeriod sim.Time
	// SplitPeriod is the cadence of forced task-tree splits
	// (0 disables; only meaningful for the Shogun scheme).
	SplitPeriod sim.Time
}

// Injector implements sim.Perturber and schedules scheduling faults on
// an accelerator's event loop. One Injector serves one accelerator: the
// rng is unsynchronized and event loops are single-threaded, so sharing
// an Injector across concurrently running simulations would race (and
// break determinism).
type Injector struct {
	cfg Config
	rng *rand.Rand

	// Counters report what was actually injected (so tests can assert
	// the harness exercised anything at all).
	Jitters    int64
	Flips      int64
	Splits     int64
	Migrations int64
}

// New builds an Injector for the given config.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// ServiceTime implements sim.Perturber: uniform inflation in
// [0, JitterPct]% of the nominal duration (at least one cycle when a
// nonzero draw rounds down).
func (in *Injector) ServiceTime(pool string, dur sim.Time) sim.Time {
	if in.cfg.JitterPct <= 0 {
		return dur
	}
	pct := in.rng.Intn(in.cfg.JitterPct + 1)
	if pct == 0 {
		return dur
	}
	in.Jitters++
	extra := dur * sim.Time(pct) / 100
	if extra < 1 {
		extra = 1
	}
	return dur + extra
}

// Attach wires the injector into a freshly built accelerator: it
// installs the jitter perturber (if the accelerator was not already
// built with Config.Perturb) and schedules the flip/split fault ticks.
// Call after accel.New and before Run; the ticks stop rescheduling once
// every PE is idle with no pending work, so a finished simulation's
// event queue still drains.
func (in *Injector) Attach(a *accel.Accelerator) {
	eng := a.Engine()
	anyBusy := func() bool {
		for _, p := range a.PEs() {
			if !p.Idle() || p.HasWork() {
				return true
			}
		}
		return false
	}
	if in.cfg.FlipPeriod > 0 {
		var flip sim.Func
		flip = func() {
			if !anyBusy() {
				return
			}
			pes := a.PEs()
			p := pes[in.rng.Intn(len(pes))]
			p.ForceConservative(!p.Conservative())
			in.Flips++
			eng.PostAfter(in.cfg.FlipPeriod, flip, 0, nil)
		}
		eng.PostAfter(in.cfg.FlipPeriod, flip, 0, nil)
	}
	if in.cfg.SplitPeriod > 0 {
		var split sim.Func
		split = func() {
			if !anyBusy() {
				return
			}
			if a.ForceSplit() {
				in.Splits++
			}
			eng.PostAfter(in.cfg.SplitPeriod, split, 0, nil)
		}
		eng.PostAfter(in.cfg.SplitPeriod, split, 0, nil)
	}
}

// ClusterTarget is the surface AttachCluster needs from a multi-chip
// system: its shared event engine, a liveness predicate, and the forced
// chip-level migration hook. Declared as an interface so chaos does not
// import internal/cluster (which imports accel, which chaos serves).
type ClusterTarget interface {
	Engine() *sim.Engine
	Busy() bool
	ForceMigrate() bool
}

// AttachCluster schedules forced chip-level subtree migrations on the
// cluster's shared event loop every period cycles — the forced-split
// fault tick lifted one level. The tick stops rescheduling once the
// cluster drains, so the event queue still empties at run end. A zero
// period disables the tick.
func (in *Injector) AttachCluster(c ClusterTarget, period sim.Time) {
	if period <= 0 {
		return
	}
	eng := c.Engine()
	var tick sim.Func
	tick = func() {
		if !c.Busy() {
			return
		}
		if c.ForceMigrate() {
			in.Migrations++
		}
		eng.PostAfter(period, tick, 0, nil)
	}
	eng.PostAfter(period, tick, 0, nil)
}
