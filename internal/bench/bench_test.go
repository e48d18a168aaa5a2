package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"shogun/internal/telemetry"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "Blong"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	tbl.AddNote("hello %d", 7)
	s := tbl.String()
	for _, want := range []string{"== x: demo ==", "Blong", "333", "note: hello 7", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Errorf("Geomean(2,8) = %v", g)
	}
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v", g)
	}
	if g := Geomean([]float64{0, -1, 3}); math.Abs(g-3) > 1e-9 {
		t.Errorf("Geomean skipping non-positives = %v", g)
	}
}

func TestLookupAndExperimentList(t *testing.T) {
	ids := []string{"table1", "table2", "table3", "table4", "fig3a", "fig3b", "fig9", "fig10", "fig11", "fig12", "fig13a", "fig13b", "fig14", "ablation", "scaling", "breakdown", "imbalance", "cluster"}
	for _, id := range ids {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(Experiments()) != len(ids) {
		t.Errorf("experiment count %d, want %d", len(Experiments()), len(ids))
	}
}

func TestStaticTables(t *testing.T) {
	if got := Table1(); len(got.Rows) != 4 {
		t.Errorf("table1 rows = %d", len(got.Rows))
	}
	t3 := Table3()
	if !strings.Contains(t3.String(), "178") {
		t.Error("table3 missing the 178-entry task tree")
	}
	t4 := Table4(Options{Quick: true})
	if len(t4.Rows) != 6 {
		t.Errorf("table4 rows = %d", len(t4.Rows))
	}
}

func TestQuickFig3aRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tbl, err := Fig3a(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("fig3a quick rows = %d", len(tbl.Rows))
	}
	// The headline claim: parallel-DFS at max width beats pseudo-DFS at
	// max width on a compute-bound workload.
	last := tbl.Rows[len(tbl.Rows)-1]
	var pd, pl float64
	if _, err := parseFloats(last[1], &pd); err != nil {
		t.Fatal(err)
	}
	if _, err := parseFloats(last[3], &pl); err != nil {
		t.Fatal(err)
	}
	if pl <= pd {
		t.Errorf("parallel-DFS (%v) did not beat pseudo-DFS (%v) at max width", pl, pd)
	}
}

func parseFloats(s string, out *float64) (int, error) {
	return fmt.Sscan(s, out)
}

// TestQuickExperimentsRun exercises the lighter experiment runners end to
// end in quick mode (the grid-sized ones are covered by the benchmarks
// and the CLI).
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Quick: true}
	t13b, err := Fig13b(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t13b.Rows) != 3 {
		t.Errorf("fig13b rows = %d", len(t13b.Rows))
	}
	t14, err := Fig14(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(t14.Rows) != 4 { // 2 cases x 2 configs in quick mode
		t.Errorf("fig14 rows = %d", len(t14.Rows))
	}
	abl, err := Ablation(o)
	if err != nil {
		t.Fatal(err)
	}
	if full := abl.FindRow("full"); full == nil || full[1] != "1.00" {
		t.Errorf("ablation baseline row = %v", full)
	}
	// Every table must render in every format.
	for _, tbl := range []*Table{t13b, t14, abl} {
		for _, f := range []string{"text", "csv", "markdown"} {
			if out, err := tbl.Format(f); err != nil || out == "" {
				t.Errorf("%s render %s: %v", tbl.ID, f, err)
			}
		}
	}
}

// TestQuickClusterScalingRuns drives the multi-chip scale-out sweep on
// the quick dataset and checks the table shape plus the monotone facts
// we can assert without pinning cycle counts: every row verified against
// the software miner (inside ClusterScaling), 1-chip row is the speedup
// baseline, and occupancy ratios are well-formed percentages. The sweep
// runs on the shared bounded pool, so one worker still records all five
// cells on the progress page.
func TestQuickClusterScalingRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	prog := telemetry.NewProgress()
	tbl, err := ClusterScaling(Options{Quick: true, Workers: 1, Progress: prog})
	if err != nil {
		t.Fatal(err)
	}
	if done, failed, total := prog.Counts(); done != 5 || failed != 0 || total != 5 {
		t.Errorf("progress done/failed/total = %d/%d/%d, want 5/0/5", done, failed, total)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("cluster rows = %d, want 5", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[0][2] != "1.00x" {
		t.Errorf("1-chip baseline row = %v", tbl.Rows[0])
	}
	for _, row := range tbl.Rows {
		if row[1] == "FAILED" {
			t.Errorf("chips=%s failed", row[0])
		}
	}
	for _, f := range []string{"text", "csv", "markdown"} {
		if out, err := tbl.Format(f); err != nil || out == "" {
			t.Errorf("cluster render %s: %v", f, err)
		}
	}
}

func TestBaselineSaveCheck(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/base.json"
	tbl := sampleTable()
	if err := SaveBaseline(path, []*Table{tbl}); err != nil {
		t.Fatal(err)
	}
	if err := CheckBaseline(path, []*Table{tbl}); err != nil {
		t.Fatalf("identical tables flagged: %v", err)
	}
	drift := sampleTable()
	drift.Rows[0][0] = "999"
	if err := CheckBaseline(path, []*Table{drift}); err == nil {
		t.Fatal("drift not detected")
	}
	if err := CheckBaseline(path, []*Table{{ID: "ghost"}}); err == nil {
		t.Fatal("unknown table not flagged")
	}
	if err := CheckBaseline(dir+"/missing.json", []*Table{tbl}); err == nil {
		t.Fatal("missing baseline accepted")
	}
}
