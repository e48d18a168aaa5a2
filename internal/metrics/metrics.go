// Package metrics is the simulator's hardware-counter and
// cycle-attribution layer: named counter families with declared
// conservation invariants, plus a Verify pass that treats every broken
// invariant as a modeling bug.
//
// The design keeps the hot path allocation-free: components accumulate
// plain int64 fields (sim.Counter, sim.WindowStat, pool busy integrals)
// while they run; a Registry is only materialized after the run, when
// accel.Metrics snapshots those fields into families and declares the
// identities that must hold between them (per-PE attributed cycles sum
// to run cycles, tasks created = executed + adopted, cache accesses =
// hits + misses, ...). Verify is therefore free during simulation and
// O(counters) afterwards.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Violation describes one failed invariant.
type Violation struct {
	Family    string
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Family, v.Invariant, v.Detail)
}

// VerifyError aggregates every violated invariant of a Verify pass.
type VerifyError struct {
	Violations []Violation
}

func (e *VerifyError) Error() string {
	if len(e.Violations) == 1 {
		return "metrics: invariant violated: " + e.Violations[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "metrics: %d invariants violated:", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n  " + v.String())
	}
	return b.String()
}

// counterVal is one named snapshot value inside a family.
type counterVal struct {
	name string
	val  int64
}

// invariant is one declared identity, pre-evaluated at declaration time
// (families are built from already-final counter values after a run).
// It keeps its operands, so the detail text is formatted only for a
// violation.
type invariant struct {
	name string
	kind invKind
	a, b int64 // Sum: a is Σ parts, b the total
}

type invKind uint8

const (
	invEq invKind = iota
	invSum
	invLE
	invGE
)

func (inv invariant) ok() bool {
	switch inv.kind {
	case invLE:
		return inv.a <= inv.b
	case invGE:
		return inv.a >= inv.b
	default:
		return inv.a == inv.b
	}
}

func (inv invariant) detail() string {
	a, b := inv.a, inv.b
	switch inv.kind {
	case invSum:
		return fmt.Sprintf("parts sum to %d, total is %d (diff %d)", a, b, a-b)
	case invLE:
		return fmt.Sprintf("%d > %d (excess %d)", a, b, a-b)
	case invGE:
		return fmt.Sprintf("%d < %d (short %d)", a, b, b-a)
	default:
		return fmt.Sprintf("%d != %d (diff %d)", a, b, a-b)
	}
}

// Family is a named group of related counters and the invariants that
// tie them together.
type Family struct {
	Name     string
	counters []counterVal
	invs     []invariant
}

// Counter records a named counter value in the family and returns it
// unchanged (so call sites can record and use a value in one expression).
func (f *Family) Counter(name string, v int64) int64 {
	f.counters = append(f.counters, counterVal{name, v})
	return v
}

// Eq declares the invariant a == b.
func (f *Family) Eq(name string, a, b int64) {
	f.invs = append(f.invs, invariant{name, invEq, a, b})
}

// Sum declares the invariant total == Σ parts.
func (f *Family) Sum(name string, total int64, parts ...int64) {
	var s int64
	for _, p := range parts {
		s += p
	}
	f.invs = append(f.invs, invariant{name, invSum, s, total})
}

// LE declares the invariant a <= b.
func (f *Family) LE(name string, a, b int64) {
	f.invs = append(f.invs, invariant{name, invLE, a, b})
}

// GE declares the invariant a >= b.
func (f *Family) GE(name string, a, b int64) {
	f.invs = append(f.invs, invariant{name, invGE, a, b})
}

// Registry is a set of counter families captured after one run. Its
// entries, families and nested registries, keep declaration order.
type Registry struct {
	items []item
}

// item is one registry entry: a family, or a nested registry whose
// family names all read with prefix in front.
type item struct {
	fam    *Family
	prefix string
	sub    *Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Family creates (and registers) a new named family.
func (r *Registry) Family(name string) *Family {
	f := &Family{Name: name}
	r.items = append(r.items, item{fam: f})
	return f
}

// Nest registers sub inside r, so a larger system can include a
// component's registry in its own: a cluster nests each chip's registry
// under "chip{i}/" and one Verify pass covers the whole machine. Verify,
// Value, Snapshot and Report read sub's families in place, named
// prefix+name; nothing is copied.
func (r *Registry) Nest(prefix string, sub *Registry) {
	r.items = append(r.items, item{prefix: prefix, sub: sub})
}

// each calls fn on every family in declaration order, nested ones with
// their accumulated name prefix, until fn returns false.
func (r *Registry) each(prefix string, fn func(prefix string, f *Family) bool) bool {
	for _, it := range r.items {
		if it.sub != nil {
			if !it.sub.each(prefix+it.prefix, fn) {
				return false
			}
		} else if !fn(prefix, it.fam) {
			return false
		}
	}
	return true
}

// Verify checks every declared invariant and returns a *VerifyError
// listing all violations, or nil when every identity holds.
func (r *Registry) Verify() error {
	var e VerifyError
	r.each("", func(prefix string, f *Family) bool {
		for _, inv := range f.invs {
			if !inv.ok() {
				e.Violations = append(e.Violations, Violation{
					Family: prefix + f.Name, Invariant: inv.name, Detail: inv.detail(),
				})
			}
		}
		return true
	})
	if len(e.Violations) > 0 {
		return &e
	}
	return nil
}

// Invariants reports the total number of declared invariants (test hook:
// a Verify pass over zero invariants proves nothing).
func (r *Registry) Invariants() int {
	n := 0
	r.each("", func(_ string, f *Family) bool {
		n += len(f.invs)
		return true
	})
	return n
}

// Value looks up a counter by "family/name" path.
func (r *Registry) Value(path string) (int64, bool) {
	i := strings.LastIndexByte(path, '/')
	if i < 0 {
		return 0, false
	}
	fam, name := path[:i], path[i+1:]
	var v int64
	found := false
	r.each("", func(prefix string, f *Family) bool {
		if len(fam) != len(prefix)+len(f.Name) || fam[:len(prefix)] != prefix || fam[len(prefix):] != f.Name {
			return true
		}
		for _, c := range f.counters {
			if c.name == name {
				v, found = c.val, true
				return false
			}
		}
		return true
	})
	return v, found
}

// Snapshot flattens every counter into a "family/name" → value map
// (regression comparisons, JSON export).
func (r *Registry) Snapshot() map[string]int64 {
	m := make(map[string]int64)
	r.each("", func(prefix string, f *Family) bool {
		for _, c := range f.counters {
			m[prefix+f.Name+"/"+c.name] = c.val
		}
		return true
	})
	return m
}

// Report renders every family as an aligned counter table followed by
// its invariant verdicts.
func (r *Registry) Report() string {
	var b strings.Builder
	r.each("", func(prefix string, f *Family) bool {
		fmt.Fprintf(&b, "[%s%s]\n", prefix, f.Name)
		w := 0
		for _, c := range f.counters {
			if len(c.name) > w {
				w = len(c.name)
			}
		}
		for _, c := range f.counters {
			fmt.Fprintf(&b, "  %-*s %14d\n", w, c.name, c.val)
		}
		for _, inv := range f.invs {
			mark := "ok"
			if !inv.ok() {
				mark = "VIOLATED " + inv.detail()
			}
			fmt.Fprintf(&b, "  invariant: %-40s %s\n", inv.name, mark)
		}
		return true
	})
	return b.String()
}

// Diff compares two snapshots and returns the "family/name" keys whose
// values differ (sorted), for metamorphic tests asserting counter
// invariance across perturbed runs.
func Diff(a, b map[string]int64) []string {
	var keys []string
	for k, av := range a {
		if bv, ok := b[k]; !ok || bv != av {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
