package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is a named experiment runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Options) ([]*Table, error)
}

// Experiments returns every experiment by id.
func Experiments() []Experiment {
	wrap1 := func(f func(Options) (*Table, error)) func(Options) ([]*Table, error) {
		return func(o Options) ([]*Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return []*Table{t}, nil
		}
	}
	return []Experiment{
		{"table1", "qualitative scheme comparison", func(o Options) ([]*Table, error) { return []*Table{Table1()}, nil }},
		{"table2", "avg intermediate cache lines per task", wrap1(Table2)},
		{"table3", "simulator configuration", func(o Options) ([]*Table, error) { return []*Table{Table3()}, nil }},
		{"table4", "dataset statistics", func(o Options) ([]*Table, error) { return []*Table{Table4(o)}, nil }},
		{"fig3a", "pseudo-DFS vs parallel-DFS width sweep (compute-bound)", wrap1(Fig3a)},
		{"fig3b", "pseudo-DFS vs parallel-DFS width sweep (thrashing)", wrap1(Fig3b)},
		{"fig9", "Shogun vs FINGERS speedup grid (+fig10 IU util)", func(o Options) ([]*Table, error) {
			t9, t10, err := Fig9And10(o)
			if err != nil {
				return nil, err
			}
			return []*Table{t9, t10}, nil
		}},
		{"fig10", "Shogun IU utilization grid (alias of fig9 runs)", func(o Options) ([]*Table, error) {
			_, t10, err := Fig9And10(o)
			if err != nil {
				return nil, err
			}
			return []*Table{t10}, nil
		}},
		{"fig11", "task-tree splitting (load balance), wi, 20 PEs", wrap1(Fig11)},
		{"fig12", "search tree merging grid", wrap1(Fig12)},
		{"fig13a", "task execution width sensitivity", wrap1(Fig13a)},
		{"fig13b", "bunches-per-depth sensitivity", wrap1(Fig13b)},
		{"fig14", "locality monitoring necessity (enlarged L1)", wrap1(Fig14)},
		{"ablation", "design-choice ablation: sibling pref, monitor, tokens, bunches (extension)", wrap1(Ablation)},
		{"breakdown", "cycle-attribution breakdown per scheme (observability extension)", wrap1(Breakdown)},
		{"imbalance", "load imbalance over time, split on/off (telemetry extension)", wrap1(Imbalance)},
		{"scaling", "strong scaling across PE counts, split on/off (extension)", wrap1(Scaling)},
		{"cluster", "multi-chip scale-out: speedup, chip occupancy, migrations at 1-16 chips (extension)", wrap1(ClusterScaling)},
	}
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// RunAllFormat executes every experiment (fig10 skipped: bundled with
// fig9) and writes the tables to w in format (text|csv|markdown).
func RunAllFormat(o Options, w io.Writer, format string) error {
	for _, e := range Experiments() {
		if e.ID == "fig10" {
			continue
		}
		o.logf("== running %s (%s)", e.ID, e.Desc)
		if o.Progress != nil {
			o.Progress.SetStage(e.ID)
		}
		tables, err := e.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		for _, t := range tables {
			out, err := t.Format(format)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, out)
		}
	}
	return nil
}
