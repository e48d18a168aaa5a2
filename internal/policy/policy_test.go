package policy

import (
	"testing"

	"shogun/internal/gen"
	"shogun/internal/graph"
	"shogun/internal/mine"
	"shogun/internal/pattern"
	"shogun/internal/pe"
	"shogun/internal/task"
)

// drive runs a policy to completion with a synchronous executor that can
// hold up to `width` tasks "in flight" and completes them in the given
// order ("fifo" or "lifo" — lifo stresses out-of-order completion).
func drive(t *testing.T, pol pe.Policy, w *task.Workload, width int, order string) int64 {
	t.Helper()
	type running struct {
		n    *task.Node
		slot int
	}
	var inflight []running
	var total int64
	for steps := 0; ; steps++ {
		if steps > 50_000_000 {
			t.Fatal("policy did not terminate")
		}
		progressed := false
		for len(inflight) < width {
			n, slot, ok := pol.Next(0)
			if !ok {
				break
			}
			w.ExecuteReuse(n, slot, nil)
			inflight = append(inflight, running{n, slot})
			progressed = true
		}
		if len(inflight) == 0 {
			if pol.Pending() {
				t.Fatal("policy stalled with pending work")
			}
			return total
		}
		idx := 0
		if order == "lifo" {
			idx = len(inflight) - 1
		}
		r := inflight[idx]
		inflight = append(inflight[:idx], inflight[idx+1:]...)
		res := pol.OnComplete(r.n, 0)
		total += res.Embeddings
		_ = progressed
	}
}

func setups(t *testing.T) (*graph.Graph, []*pattern.Schedule) {
	g := gen.RMAT(128, 700, 0.6, 0.15, 0.15, 11)
	var ss []*pattern.Schedule
	for _, p := range []pattern.Pattern{pattern.Triangle(), pattern.FourClique(), pattern.TailedTriangle(), pattern.Diamond(), pattern.FourCycle()} {
		for _, ind := range []bool{false, true} {
			s, err := pattern.BuildWith(p, pattern.BuildOptions{Induced: ind})
			if err != nil {
				t.Fatal(err)
			}
			ss = append(ss, s)
		}
	}
	return g, ss
}

func TestPoliciesCountCorrectly(t *testing.T) {
	g, ss := setups(t)
	for _, s := range ss {
		want := mine.Count(g, s)
		for _, completion := range []string{"fifo", "lifo"} {
			builders := map[string]func(*task.Workload, *Tokens) pe.Policy{
				"dfs": func(w *task.Workload, tk *Tokens) pe.Policy { return NewDFS(w, tk, AllRoots(g)) },
				"pseudo-dfs": func(w *task.Workload, tk *Tokens) pe.Policy {
					return NewPseudoDFS(w, tk, AllRoots(g), 8)
				},
				"bfs": func(w *task.Workload, tk *Tokens) pe.Policy { return NewBFS(w, tk, AllRoots(g)) },
				"parallel-dfs": func(w *task.Workload, tk *Tokens) pe.Policy {
					return NewParallelDFS(w, tk, AllRoots(g), 8)
				},
			}
			for name, build := range builders {
				w := task.NewWorkload(g, s, task.NewCandPool(g))
				tokens := NewTokens(0, 1, s.Depth(), 8)
				pol := build(w, tokens)
				got := drive(t, pol, w, 8, completion)
				if got != want {
					t.Errorf("%s/%s/%s: counted %d, want %d", name, s.Name, completion, got, want)
				}
				for d := 1; d < s.Depth(); d++ {
					if tokens.inUse[d] != 0 {
						t.Errorf("%s/%s: %d tokens leaked at depth %d", name, s.Name, tokens.inUse[d], d)
					}
				}
			}
		}
	}
}

func TestDFSUsesOneSlot(t *testing.T) {
	g := gen.Clique(10)
	s, _ := pattern.Build(pattern.FourClique())
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	pol := NewDFS(w, NewTokens(0, 1, s.Depth(), 8), AllRoots(g))
	n, slot, ok := pol.Next(0)
	if !ok {
		t.Fatal("no first task")
	}
	if _, _, ok := pol.Next(0); ok {
		t.Fatal("DFS issued a second concurrent task")
	}
	w.ExecuteReuse(n, slot, nil)
	pol.OnComplete(n, 0)
	if _, _, ok := pol.Next(0); !ok {
		t.Fatal("DFS has no follow-up task")
	}
}

func TestPseudoDFSBarrier(t *testing.T) {
	g := gen.Clique(12)
	s, _ := pattern.Build(pattern.FourClique())
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	// Root 11 has 11 candidates after symmetry truncation (v1 < 11).
	pol := NewPseudoDFS(w, NewTokens(0, 1, s.Depth(), 8), &SliceRoots{Vertices: []graph.VertexID{11}}, 4)

	// Root runs alone.
	root, slot, ok := pol.Next(0)
	if !ok || root.Depth != 0 {
		t.Fatal("expected root first")
	}
	w.ExecuteReuse(root, slot, nil)
	pol.OnComplete(root, 0)

	// First group: exactly 4 siblings (group size), no more.
	var group []*task.Node
	var slots []int
	for {
		n, sl, ok := pol.Next(0)
		if !ok {
			break
		}
		group = append(group, n)
		slots = append(slots, sl)
	}
	if len(group) != 4 {
		t.Fatalf("group size = %d, want 4", len(group))
	}
	for i, n := range group {
		if n.Depth != 1 {
			t.Fatalf("group member depth = %d", n.Depth)
		}
		w.ExecuteReuse(n, slots[i], nil)
	}
	// Complete all but one member: the barrier must hold.
	for _, n := range group[:3] {
		pol.OnComplete(n, 0)
		if _, _, ok := pol.Next(0); ok {
			t.Fatal("barrier violated: new task before group completed")
		}
	}
	pol.OnComplete(group[3], 0)
	if _, _, ok := pol.Next(0); !ok {
		t.Fatal("no task after barrier release")
	}
}

func TestBFSAdvancesByDepth(t *testing.T) {
	g := gen.Clique(8)
	s, _ := pattern.Build(pattern.FourClique())
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	tokens := NewTokens(0, 1, s.Depth(), 8)
	pol := NewBFS(w, tokens, AllRoots(g))
	pol.RootsPerWave = 8
	// BFS must raise token caps.
	if tokens.Cap(1) <= 8 {
		t.Fatal("BFS left token caps bounded")
	}
	seen := map[int]bool{}
	var inflight []*task.Node
	var inflightSlots []int
	for steps := 0; steps < 100000; steps++ {
		n, slot, ok := pol.Next(0)
		if ok {
			w.ExecuteReuse(n, slot, nil)
			inflight = append(inflight, n)
			inflightSlots = append(inflightSlots, slot)
			seen[n.Depth] = true
			continue
		}
		if len(inflight) == 0 {
			break
		}
		pol.OnComplete(inflight[0], 0)
		inflight = inflight[1:]
		inflightSlots = inflightSlots[1:]
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("BFS depths visited: %v", seen)
	}
	// 8 concurrent trees, each holding a root set plus a depth-1
	// frontier of stored sets: far beyond a DFS path's 2 live sets.
	if pk := pol.tokens.Peak(); pk <= 16 {
		t.Fatalf("BFS footprint %d suspiciously small", pk)
	}
}

func TestParallelDFSLanesIndependent(t *testing.T) {
	g := gen.Clique(10)
	s, _ := pattern.Build(pattern.Triangle())
	w := task.NewWorkload(g, s, task.NewCandPool(g))
	pol := NewParallelDFS(w, NewTokens(0, 1, s.Depth(), 4), AllRoots(g), 4)
	var roots []*task.Node
	for {
		n, slot, ok := pol.Next(0)
		if !ok {
			break
		}
		w.ExecuteReuse(n, slot, nil)
		roots = append(roots, n)
	}
	if len(roots) != 4 {
		t.Fatalf("parallel-dfs issued %d concurrent tasks, want 4 lanes", len(roots))
	}
	ids := map[int]bool{}
	for _, r := range roots {
		if r.Depth != 0 {
			t.Fatalf("lane task depth = %d", r.Depth)
		}
		if ids[r.TreeID] {
			t.Fatal("two lanes share a tree")
		}
		ids[r.TreeID] = true
	}
}

func TestTokensExhaustionAndRelease(t *testing.T) {
	tk := NewTokens(2, 4, 4, 2)
	s1, ok := tk.TryAcquire(1)
	if !ok {
		t.Fatal("first acquire failed")
	}
	s2, ok := tk.TryAcquire(1)
	if !ok {
		t.Fatal("second acquire failed")
	}
	if _, ok := tk.TryAcquire(1); ok {
		t.Fatal("over-capacity acquire succeeded")
	}
	if s1%4 != 2 || s2%4 != 2 {
		t.Fatalf("slots %d,%d not tagged with PE id", s1, s2)
	}
	if s1 == s2 {
		t.Fatal("duplicate slot ids")
	}
	// Other depths unaffected.
	if _, ok := tk.TryAcquire(2); !ok {
		t.Fatal("depth-2 acquire failed")
	}
	tk.Release(1, s1)
	if _, ok := tk.TryAcquire(1); !ok {
		t.Fatal("acquire after release failed")
	}
	if tk.Peak() != 3 {
		t.Fatalf("peak = %d", tk.Peak())
	}
}

func TestTokenOverReleasePanics(t *testing.T) {
	tk := NewTokens(0, 1, 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	tk.Release(1, 0)
}

func TestSliceRootsRemaining(t *testing.T) {
	r := &SliceRoots{Vertices: []graph.VertexID{5, 6}}
	if len(r.Vertices)-r.next != 2 {
		t.Fatal("remaining wrong")
	}
	if v, ok := r.NextRoot(); !ok || v != 5 {
		t.Fatal("first root wrong")
	}
	r.NextRoot()
	if _, ok := r.NextRoot(); ok {
		t.Fatal("exhausted source still yields")
	}
	if len(r.Vertices)-r.next != 0 {
		t.Fatal("remaining after drain")
	}
}
