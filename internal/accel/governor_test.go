package accel

import (
	"context"
	"errors"
	"strings"
	"testing"

	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/trace"
)

func triSchedule(t *testing.T) *pattern.Schedule {
	t.Helper()
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// panicTracer panics after n task completions — a deterministic stand-in
// for an internal invariant violation deep inside the event loop.
type panicTracer struct{ n int }

func (p *panicTracer) TaskDone(trace.Event) {
	if p.n--; p.n <= 0 {
		panic("injected invariant violation")
	}
}

var _ trace.Tracer = (*panicTracer)(nil)

func TestRunContextCancelled(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.57, 0.17, 0.17, 7)
	cfg := DefaultConfig(SchemeShogun)
	cfg.EnableSplitting = true
	cfg.WatchdogPoll = 256
	a, err := New(g, triSchedule(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.RunContext(ctx); !errors.Is(err, sim.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestRunContextEventBudget(t *testing.T) {
	g := gen.RMAT(1<<10, 6000, 0.57, 0.17, 0.17, 7)
	cfg := DefaultConfig(SchemeShogun)
	cfg.MaxEvents = 500
	a, err := New(g, triSchedule(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RunContext(context.Background()); !errors.Is(err, sim.ErrEventBudget) {
		t.Fatalf("err = %v, want ErrEventBudget", err)
	}
}

func TestRunContextPanicContainment(t *testing.T) {
	g := gen.RMAT(1<<9, 3000, 0.57, 0.17, 0.17, 11)
	cfg := DefaultConfig(SchemeShogun)
	cfg.Tracer = &panicTracer{n: 50}
	a, err := New(g, triSchedule(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.RunContext(context.Background())
	if res != nil {
		t.Fatal("result returned alongside a contained panic")
	}
	var ie *sim.InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T %v, want *sim.InvariantError", err, err)
	}
	if ie.PanicValue != "injected invariant violation" {
		t.Fatalf("PanicValue = %v", ie.PanicValue)
	}
	if ie.Snapshot == nil {
		t.Fatal("InvariantError without snapshot")
	}
	// The snapshot must carry per-PE resources and FSM notes.
	if len(ie.Snapshot.Resources) != 2*cfg.NumPEs {
		t.Fatalf("snapshot has %d resources, want %d", len(ie.Snapshot.Resources), 2*cfg.NumPEs)
	}
	if len(ie.Snapshot.Notes) != cfg.NumPEs || !strings.Contains(ie.Snapshot.Notes[0], "tree{") {
		t.Fatalf("snapshot notes = %v", ie.Snapshot.Notes)
	}
	if ie.Stack == "" {
		t.Fatal("InvariantError without stack")
	}
	if d := ie.Details(); !strings.Contains(d, "pe0") || !strings.Contains(d, "invariant violation") {
		t.Fatalf("Details() missing content:\n%s", d)
	}
}

func TestForceSplitPreservesCount(t *testing.T) {
	g := gen.RMAT(1<<10, 8000, 0.57, 0.17, 0.17, 13)
	s := triSchedule(t)
	cfg := DefaultConfig(SchemeShogun)
	base, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	a, err := New(g, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Inject forced splits every 2000 cycles while work remains.
	forced := 0
	var tick sim.Func
	tick = func() {
		if a.ForceSplit() {
			forced++
		}
		for _, p := range a.PEs() {
			if !p.Idle() || p.HasWork() {
				a.Engine().PostAfter(2000, tick, 0, nil)
				return
			}
		}
	}
	a.Engine().PostAfter(2000, tick, 0, nil)
	got, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Embeddings != want.Embeddings {
		t.Fatalf("forced splits changed the count: %d vs %d (forced %d)", got.Embeddings, want.Embeddings, forced)
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConservationCleanRun(t *testing.T) {
	g := gen.RMAT(1<<9, 3000, 0.57, 0.17, 0.17, 17)
	for _, scheme := range []Scheme{SchemeShogun, SchemePseudoDFS, SchemeBFS} {
		a, err := New(g, triSchedule(t), DefaultConfig(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Run(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := a.CheckConservation(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}
