package bench

import (
	"fmt"
	"sort"

	"shogun/internal/accel"
)

// CellFailure records one grid cell that did not produce a result: a
// watchdog abort, a verification mismatch, or a contained invariant
// panic. The error keeps its diagnostic payload (*sim.InvariantError,
// *sim.DeadlockError) for the run summary.
type CellFailure struct {
	Key string
	Err error
}

// Grid holds the outcome of one batch of cells: results for the cells
// that completed and typed failures for the ones that did not. Every
// accessor is nil-safe on missing keys, so figure builders degrade to
// "fail" entries instead of dying on the first bad cell.
type Grid struct {
	res      map[string]*accel.Result
	failures []CellFailure
}

// Res returns a cell's result, or nil if it failed or was never run.
func (g *Grid) Res(key string) *accel.Result { return g.res[key] }

// ratio returns num.Cycles/den.Cycles when both cells succeeded.
func (g *Grid) ratio(num, den string) (float64, bool) {
	n, d := g.res[num], g.res[den]
	if n == nil || d == nil || d.Cycles == 0 {
		return 0, false
	}
	return float64(n.Cycles) / float64(d.Cycles), true
}

// speedup renders num.Cycles/den.Cycles, or "fail" when a cell is
// missing.
func (g *Grid) speedup(num, den string) string {
	if r, ok := g.ratio(num, den); ok {
		return f2(r)
	}
	return "fail"
}

// metric renders fn over a cell's result, or "fail" when missing.
func (g *Grid) metric(key string, fn func(*accel.Result) string) string {
	if r := g.res[key]; r != nil {
		return fn(r)
	}
	return "fail"
}

// cycles renders a cell's cycle count, or "fail" when missing.
func (g *Grid) cycles(key string) string {
	if r := g.res[key]; r != nil {
		return fmt.Sprintf("%d", r.Cycles)
	}
	return "fail"
}

// annotate appends one note per failed cell so the failure — and its
// one-line diagnostic — lands in the rendered table instead of silently
// shrinking it.
func (g *Grid) annotate(t *Table) {
	for _, f := range g.failures {
		t.AddNote("FAILED cell %s: %v", f.Key, f.Err)
	}
}

func (g *Grid) sortFailures() {
	sort.Slice(g.failures, func(i, j int) bool { return g.failures[i].Key < g.failures[j].Key })
}
