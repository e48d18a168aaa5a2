package bench

import (
	"context"
	"errors"
	"strings"
	"testing"

	"shogun/internal/accel"
	"shogun/internal/gen"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/trace"
)

// boomTracer panics after n task completions — the deliberately
// injected invariant violation of the acceptance criteria.
type boomTracer struct{ n int }

func (b *boomTracer) TaskDone(trace.Event) {
	if b.n--; b.n <= 0 {
		panic("bench-test: poisoned cell")
	}
}

// TestGridDegradesGracefully pins the harness's graceful-degradation
// contract: a grid with one poisoned cell completes every other cell
// and surfaces the failure, with its key and diagnostics, in the Grid.
func TestGridDegradesGracefully(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 33)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	good1 := accel.DefaultConfig(accel.SchemeShogun)
	good2 := accel.DefaultConfig(accel.SchemePseudoDFS)
	bad := accel.DefaultConfig(accel.SchemeShogun)
	bad.Tracer = &boomTracer{n: 20}
	cells := []cell{
		{"good/shogun", g, s, good1},
		{"bad/poisoned", g, s, bad},
		{"good/pseudo-dfs", g, s, good2},
	}
	grid, err := runCells(Options{Workers: 2}, cells)
	if err != nil {
		t.Fatalf("runCells aborted the batch: %v", err)
	}
	if grid.Res("good/shogun") == nil || grid.Res("good/pseudo-dfs") == nil {
		t.Fatal("healthy cells did not complete alongside the poisoned one")
	}
	fails := grid.failures
	if len(fails) != 1 || fails[0].Key != "bad/poisoned" {
		t.Fatalf("failures = %+v, want exactly bad/poisoned", fails)
	}
	var ie *sim.InvariantError
	if !errors.As(fails[0].Err, &ie) {
		t.Fatalf("failure error = %T %v, want *sim.InvariantError", fails[0].Err, fails[0].Err)
	}
	if ie.Snapshot == nil {
		t.Fatal("failed cell carries no diagnostic snapshot")
	}
	// The failure must land in the rendered table, keyed.
	tbl := &Table{ID: "x", Title: "x", Header: []string{"a"}}
	grid.annotate(tbl)
	if len(tbl.Notes) != 1 || !strings.Contains(tbl.Notes[0], "bad/poisoned") {
		t.Fatalf("table notes = %v", tbl.Notes)
	}
}

// TestGridCellBudget pins per-cell watchdog budgets: an undersized
// event budget fails the cell (recorded, not fatal) while the batch
// completes.
func TestGridCellBudget(t *testing.T) {
	g := gen.RMAT(512, 3000, 0.6, 0.15, 0.15, 35)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	cells := []cell{{"budgeted", g, s, accel.DefaultConfig(accel.SchemeShogun)}}
	grid, err := runCells(Options{Workers: 1, CellMaxEvents: 100}, cells)
	if err != nil {
		t.Fatal(err)
	}
	fails := grid.failures
	if len(fails) != 1 || !errors.Is(fails[0].Err, sim.ErrEventBudget) {
		t.Fatalf("failures = %+v, want one ErrEventBudget", fails)
	}
}

// TestGridCancelled pins whole-run cancellation: a cancelled
// Options.Ctx aborts runCells with an error (partial grid returned).
func TestGridCancelled(t *testing.T) {
	g := gen.RMAT(256, 1500, 0.6, 0.15, 0.15, 37)
	s, err := pattern.Build(pattern.Triangle())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells := []cell{{"c0", g, s, accel.DefaultConfig(accel.SchemeShogun)}}
	_, err = runCells(Options{Workers: 1, Ctx: ctx}, cells)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
