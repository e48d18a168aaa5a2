package cluster

import (
	"fmt"

	"shogun/internal/metrics"
)

// Metrics snapshots the cluster-scope counters into a metrics.Registry
// and declares the cross-chip conservation identities: every subtree
// migrated out of a chip was adopted by another, the interconnect moved
// exactly the lines carved, nothing is left in flight, and the global
// task totals equal the per-chip sums measured through an independent
// counter path. Each chip's own registry (~60 identities) nests under a
// chip{i}/ prefix, so one Verify pass covers the whole machine.
func (c *Cluster) Metrics() *metrics.Registry {
	reg := metrics.NewRegistry()

	var migOut, migIn int64
	var wlExec, wlAdopted int64       // per-chip workload-counter path
	var peTasks, peEmb, peLeaf int64  // per-chip PE-counter path
	var splitsLocal, splitsRecv int64 // §4.1 deliveries vs tree receipts
	for i, chip := range c.chips {
		migOut += chip.MigratedOut
		migIn += chip.MigratedIn
		sub := chip.Metrics()
		reg.Nest(fmt.Sprintf("chip%d/", i), sub)
		val := func(path string) int64 {
			v, _ := sub.Value(path)
			return v
		}
		wlExec += val("tasks/executed")
		wlAdopted += val("tasks/adopted-splits")
		splitsLocal += val("splitmerge/splits-delivered")
		splitsRecv += val("splitmerge/splits-received")
		for _, p := range chip.PEs() {
			peTasks += p.TasksExecuted
			peEmb += p.Embeddings
			peLeaf += p.LeafTasks
		}
	}

	x := reg.Family("cluster")
	out := x.Counter("migrated-out", migOut)
	in := x.Counter("migrated-in", migIn)
	delivered := x.Counter("migrations-delivered", c.Migrations)
	x.Counter("adopt-retries", c.AdoptRetries)
	inFlight := x.Counter("migrations-in-flight", int64(c.inFlight))
	sent := x.Counter("inter-lines-sent", c.LinesSent)
	recv := x.Counter("inter-lines-received", c.LinesRecv)
	x.Eq("tasks migrated out == tasks adopted in", out, in+inFlight)
	x.Eq("migrations carved == delivered + in flight", out, delivered+inFlight)
	x.Eq("no migrations in flight", inFlight, 0)
	x.Eq("interconnect lines sent == received", sent, recv)
	// Every tree receipt anywhere in the cluster traces to a local §4.1
	// delivery or a cross-chip migration — no subtree is double-counted
	// or lost in transit.
	x.Eq("Σ splits received == Σ local deliveries + migrations",
		splitsRecv, splitsLocal+delivered)

	ic := reg.Family("interconnect")
	msgs := ic.Counter("messages", c.inter.Messages)
	moved := ic.Counter("lines-moved", c.inter.LinesMoved)
	// Each migration is the three-message §4.1 protocol lifted one
	// level: two zero-line control messages plus the payload transfer.
	ic.Eq("messages == 3 × migrations", msgs, 3*(delivered+inFlight))
	ic.Eq("lines moved == lines sent", moved, sent)

	// Global totals: the PE-counter path (the counters Result sums) must
	// equal the workload-counter path summed over chips. Executions
	// exclude adopted subtree roots (installed pre-executed), which the
	// adopter's PE counters also never see.
	g := reg.Family("global")
	tasks := g.Counter("tasks", peTasks)
	g.Counter("embeddings", peEmb)
	g.Counter("leaf-tasks", peLeaf)
	g.Counter("workload-executions", wlExec)
	g.Counter("adopted-splits", wlAdopted)
	g.Eq("global tasks == Σ per-chip workload executions", tasks, wlExec)

	return reg
}

// Verify runs the conservation pass over the whole cluster — the
// cross-chip identities plus every chip's own registry — returning a
// *metrics.VerifyError naming each violated invariant (nil when all
// hold). RunContext calls this after every successful run.
func (c *Cluster) Verify() error {
	return c.Metrics().Verify()
}
