package metrics

import (
	"errors"
	"strings"
	"testing"
)

func TestVerifyPassesWhenInvariantsHold(t *testing.T) {
	r := NewRegistry()
	f := r.Family("cache")
	acc := f.Counter("accesses", 10)
	hits := f.Counter("hits", 7)
	miss := f.Counter("misses", 3)
	f.Sum("accesses == hits + misses", acc, hits, miss)
	f.Eq("hits", hits, 7)
	f.LE("hits <= accesses", hits, acc)
	f.GE("accesses >= misses", acc, miss)
	if err := r.Verify(); err != nil {
		t.Fatalf("unexpected violation: %v", err)
	}
	if r.Invariants() != 4 {
		t.Fatalf("invariant count = %d, want 4", r.Invariants())
	}
}

func TestVerifyReportsEveryViolation(t *testing.T) {
	r := NewRegistry()
	f := r.Family("pe0")
	f.Eq("a == b", 5, 6)
	f.Sum("t == p+q", 10, 3, 3)
	g := r.Family("pe1")
	g.LE("x <= y", 9, 2)
	g.GE("x >= z", 1, 2)

	err := r.Verify()
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VerifyError, got %T (%v)", err, err)
	}
	if len(ve.Violations) != 4 {
		t.Fatalf("violations = %d, want 4: %v", len(ve.Violations), ve)
	}
	msg := ve.Error()
	for _, want := range []string{"pe0", "pe1", "a == b", "t == p+q", "x <= y", "x >= z"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error message missing %q:\n%s", want, msg)
		}
	}
}

func TestValueAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Family("dram").Counter("reads", 42)
	r.Family("noc").Counter("messages", 7)

	if v, ok := r.Value("dram/reads"); !ok || v != 42 {
		t.Fatalf("Value(dram/reads) = %d, %t", v, ok)
	}
	if _, ok := r.Value("dram/writes"); ok {
		t.Fatal("Value found a counter that was never recorded")
	}
	if _, ok := r.Value("noform"); ok {
		t.Fatal("Value accepted a path without a family separator")
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["dram/reads"] != 42 || snap["noc/messages"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestDiff(t *testing.T) {
	a := map[string]int64{"x/a": 1, "x/b": 2, "x/c": 3}
	b := map[string]int64{"x/a": 1, "x/b": 9, "x/d": 4}
	got := Diff(a, b)
	want := []string{"x/b", "x/c", "x/d"}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diff = %v, want %v", got, want)
		}
	}
	if d := Diff(a, a); len(d) != 0 {
		t.Fatalf("self-diff = %v, want empty", d)
	}
}

func TestReportMarksViolations(t *testing.T) {
	r := NewRegistry()
	f := r.Family("fam")
	f.Counter("good", 1)
	f.Eq("holds", 1, 1)
	f.Eq("breaks", 1, 2)
	rep := r.Report()
	if !strings.Contains(rep, "VIOLATED") || !strings.Contains(rep, "holds") {
		t.Fatalf("report missing verdicts:\n%s", rep)
	}
}

// TestNestReadsLikePrefixedFamilies pins that a nested registry reads
// exactly as if its families had been declared in the parent under the
// prefixed name: Verify text, Report, Snapshot, Value and Invariants.
func TestNestReadsLikePrefixedFamilies(t *testing.T) {
	declare := func(r *Registry, prefix string) {
		f := r.Family(prefix + "pe0/l1")
		acc := f.Counter("accesses", 10)
		f.Sum("accesses == hits + misses", acc, f.Counter("hits", 8), f.Counter("misses", 3))
		g := r.Family(prefix + "noc")
		g.LE("in flight <= links", g.Counter("inflight", 9), 4)
		g.GE("messages >= lines", 2, 5)
		g.Eq("drained", 0, 0)
	}
	flat := NewRegistry()
	declare(flat, "chip0/")
	declare(flat, "chip1/")
	flat.Family("cluster").Eq("out == in", 3, 2)

	nested := NewRegistry()
	for _, prefix := range []string{"chip0/", "chip1/"} {
		sub := NewRegistry()
		declare(sub, "")
		nested.Nest(prefix, sub)
	}
	nested.Family("cluster").Eq("out == in", 3, 2)

	if got, want := nested.Verify().Error(), flat.Verify().Error(); got != want {
		t.Errorf("Verify text differs:\n nested: %s\n flat:   %s", got, want)
	}
	if got, want := nested.Report(), flat.Report(); got != want {
		t.Errorf("Report differs:\n nested:\n%s\n flat:\n%s", got, want)
	}
	if d := Diff(nested.Snapshot(), flat.Snapshot()); len(d) != 0 {
		t.Errorf("Snapshot differs at %v", d)
	}
	if got, want := nested.Invariants(), flat.Invariants(); got != want {
		t.Errorf("Invariants = %d, flat %d", got, want)
	}
	for _, path := range []string{"chip1/pe0/l1/hits", "chip0/noc/inflight", "chip1/noc/missing", "pe0/l1/hits", "chip2/noc/inflight"} {
		gv, gok := nested.Value(path)
		wv, wok := flat.Value(path)
		if gv != wv || gok != wok {
			t.Errorf("Value(%s) = %d,%t, flat %d,%t", path, gv, gok, wv, wok)
		}
	}
	outer := NewRegistry()
	outer.Nest("rack0/", nested)
	if v, ok := outer.Value("rack0/chip1/noc/inflight"); !ok || v != 9 {
		t.Errorf("two-level Value = %d,%t, want 9,true", v, ok)
	}
}
