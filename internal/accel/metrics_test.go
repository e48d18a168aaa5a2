package accel

import (
	"context"
	"errors"
	"strings"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/metrics"
	"shogun/internal/pattern"
	"shogun/internal/sim"
)

// metricsTestRun simulates a small triangle-counting run and returns the
// accelerator with its counters populated.
func metricsTestRun(t *testing.T, scheme Scheme, split, merge bool) (*Accelerator, *Result) {
	t.Helper()
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	cfg := DefaultConfig(scheme)
	cfg.NumPEs = 4
	cfg.EnableSplitting = split
	cfg.EnableMerging = merge
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return a, res
}

// TestMetricsVerifyAllSchemes asserts the conservation pass holds for
// every scheduling scheme (it also runs inside every Run — this pins the registry shape and invariant count besides).
func TestMetricsVerifyAllSchemes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
		split  bool
		merge  bool
	}{
		{"bfs", SchemeBFS, false, false},
		{"dfs", SchemeDFS, false, false},
		{"pseudo-dfs", SchemePseudoDFS, false, false},
		{"parallel-dfs", SchemeParallelDFS, false, false},
		{"shogun", SchemeShogun, false, false},
		{"shogun+split+merge", SchemeShogun, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := metricsTestRun(t, tc.scheme, tc.split, tc.merge)
			reg := a.Metrics()
			if err := reg.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			if n := reg.Invariants(); n < 40 {
				t.Fatalf("registry declares %d invariants, want ≥ 40", n)
			}
			if v, ok := reg.Value("tasks/created"); !ok || v == 0 {
				t.Fatalf("tasks/created = %d, ok=%t; want non-zero", v, ok)
			}
			rep := reg.Report()
			if strings.Contains(rep, "VIOLATED") {
				t.Fatalf("report marks violations on a clean run:\n%s", rep)
			}
		})
	}
}

// TestMetricsAttributionPartition asserts the headline identity from the
// issue: per-PE attributed cycles sum exactly to width × run-cycles, and
// the Result-level breakdown is the sum of the per-PE ones.
func TestMetricsAttributionPartition(t *testing.T) {
	a, res := metricsTestRun(t, SchemeShogun, true, true)
	width := int64(a.cfg.PE.Width)
	var sum CycleBreakdown
	for i, ps := range res.PerPE {
		want := width * int64(res.Cycles)
		if got := ps.Breakdown.Total(); got != want {
			t.Errorf("pe%d: breakdown total = %d, want width×cycles = %d", i, got, want)
		}
		if ps.Breakdown.Busy() != a.pes[i].SlotResidency {
			t.Errorf("pe%d: busy = %d, want slot residency %d",
				i, ps.Breakdown.Busy(), a.pes[i].SlotResidency)
		}
		sum.Add(ps.Breakdown)
	}
	if sum != res.Breakdown {
		t.Errorf("Result.Breakdown = %+v, want Σ per-PE = %+v", res.Breakdown, sum)
	}
	if res.Breakdown.Compute == 0 || res.Breakdown.MemStall == 0 || res.Breakdown.Scheduling == 0 {
		t.Errorf("degenerate breakdown: %+v", res.Breakdown)
	}
}

// TestMetricsDetectsCorruption proves Verify is a live oracle: nudging a
// counter after the run violates the identities that mention it.
func TestMetricsDetectsCorruption(t *testing.T) {
	a, _ := metricsTestRun(t, SchemeShogun, false, false)
	a.pes[0].TasksExecuted++
	err := a.VerifyMetrics()
	if err == nil {
		t.Fatal("verify passed after corrupting a counter")
	}
	var ve *metrics.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error type = %T, want *metrics.VerifyError", err)
	}
	// The executed count participates in at least the PE-level FSM
	// identity and the global execution sum.
	if len(ve.Violations) < 2 {
		t.Fatalf("violations = %v, want ≥ 2", ve.Violations)
	}
}

// TestMetricsDetectsStrandedWaiters: a slot or SPM waiter left queued
// after the run violates that PE's "no waiters at end" identity, and
// nothing else.
func TestMetricsDetectsStrandedWaiters(t *testing.T) {
	for _, c := range []struct {
		name string
		sem  func(a *Accelerator) *sim.Semaphore
	}{
		{"no slot waiters at end", func(a *Accelerator) *sim.Semaphore { return a.pes[1].Slots }},
		{"no spm waiters at end", func(a *Accelerator) *sim.Semaphore { return a.pes[1].SPM }},
	} {
		a, _ := metricsTestRun(t, SchemeShogun, false, false)
		sem := c.sem(a)
		sem.AcquireOrWait(a.eng.Now(), sem.Available()+1, sim.Func(func() {}), 0, nil)
		var ve *metrics.VerifyError
		if err := a.VerifyMetrics(); !errors.As(err, &ve) || len(ve.Violations) != 1 ||
			ve.Violations[0].Family != "pe1/cycles" || ve.Violations[0].Invariant != c.name {
			t.Errorf("%s: verify = %v, want that one violation on pe1", c.name, err)
		}
	}
}

// TestMetricsEnabledByDefault asserts RunContext itself runs the
// conservation pass on every run: a counter corrupted mid-run must fail
// the run with the violation, under the default config.
func TestMetricsEnabledByDefault(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 42)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatalf("schedule: %v", err)
	}
	cfg := DefaultConfig(SchemeShogun)
	cfg.NumPEs = 4
	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	// A phantom split delivery: no tree received it and the NoC never
	// carried its three messages.
	a.eng.PostAfter(1, sim.Func(func() { a.Splits++ }), 0, nil)
	_, err = a.Run()
	var ve *metrics.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("run error = %v, want a *metrics.VerifyError", err)
	}
}

// TestUndealtRootsAreADeadlock: a chip whose PEs never ask for their
// roots drains an empty event queue having mined nothing. That is a
// deadlock, not a count of zero: Drained fails with *sim.DeadlockError,
// and every PE's "roots dealt == roots fed" identity is violated.
func TestUndealtRootsAreADeadlock(t *testing.T) {
	g := gen.RMAT(1024, 6000, 0.6, 0.15, 0.15, 1)
	a, err := New(g, triSchedule(t), DefaultConfig(SchemeShogun))
	if err != nil {
		t.Fatal(err)
	}
	// The engine runs without Start: no PE is ever kicked.
	if err := a.Engine().RunGoverned(context.Background(), a.Budget()); err != nil {
		t.Fatal(err)
	}
	var dead *sim.DeadlockError
	if err := a.Drained(); !errors.As(err, &dead) {
		t.Errorf("Drained = %v, want a *sim.DeadlockError", err)
	}
	var ve *metrics.VerifyError
	if err := a.VerifyMetrics(); !errors.As(err, &ve) || len(ve.Violations) != len(a.pes) {
		t.Fatalf("verify = %v, want one violation per PE", err)
	}
	for i, v := range ve.Violations {
		if v.Invariant != "roots dealt == roots fed" {
			t.Errorf("violation %d = %v, want roots dealt == roots fed", i, v)
		}
	}
}
