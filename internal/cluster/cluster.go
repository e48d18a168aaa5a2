package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"

	"shogun/internal/accel"
	"shogun/internal/graph"
	"shogun/internal/mem"
	"shogun/internal/pattern"
	"shogun/internal/sim"
	"shogun/internal/task"
	"shogun/internal/telemetry"
	"shogun/internal/trace"
)

// Config parameterizes a multi-chip cluster.
type Config struct {
	// Chips is the number of accelerator chips (≥ 1).
	Chips int
	// Partition selects the static root-vertex partitioner (empty =
	// replicate, the baseline that is bit-identical to a single chip at
	// Chips == 1).
	Partition Mode
	// PartitionSeed drives the hash partitioner (ignored by the others).
	PartitionSeed int64
	// Chip configures every chip identically (the per-run governor
	// budgets come from Chip.Deadline/MaxEvents/MaxWall).
	Chip accel.Config
	// Interconnect models the chip-to-chip fabric as a second NoC level:
	// per-link latency/bandwidth plus message counters. Zero links
	// auto-sizes to one link per chip.
	Interconnect mem.NoCConfig
	// Steal enables chip-level task-tree splitting: an overloaded chip
	// exports a carved depth-1 subtree and an idle chip adopts it over
	// the interconnect. Shogun-scheme chips only. Steal re-checks and
	// adoption retries run at the chip's BalancePeriod, the cadence of
	// the same mechanism one level down.
	Steal bool
}

// DefaultConfig mirrors accel.DefaultConfig at cluster scope: Table 3
// chips behind an inter-chip fabric an order of magnitude slower than
// the on-chip NoC.
func DefaultConfig(scheme accel.Scheme, chips int) Config {
	return Config{
		Chips:     chips,
		Partition: ModeReplicate,
		Chip:      accel.DefaultConfig(scheme),
		// A serial chip-to-chip link: ~10× the on-chip hop latency and
		// 4× the per-line occupancy of the on-chip crossbar.
		Interconnect: mem.NoCConfig{Links: 0 /* auto: 1 per chip */, HopLat: 40, FlitCycles: 4},
		Steal:        true,
	}
}

// ParseConfig reads a machine file, the JSON `shogun -dumpconfig`
// writes, over DefaultConfig at one chip for the file's chip scheme
// (empty means shogun): a field the file leaves out keeps its default,
// and a key Config no longer has is ignored. A file without a "Chip"
// object is refused; a chip-only file would otherwise load, every key
// unknown, as the default machine.
func ParseConfig(b []byte) (Config, error) {
	var probe struct {
		Chip *struct{ Scheme accel.Scheme }
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return Config{}, fmt.Errorf("cluster: machine config: %w", err)
	}
	if probe.Chip == nil {
		return Config{}, errors.New(`cluster: machine config has no "Chip" object (nest a chip-only config under "Chip")`)
	}
	scheme := probe.Chip.Scheme
	if scheme == "" {
		scheme = accel.SchemeShogun
	}
	cfg := DefaultConfig(scheme, 1)
	if err := json.Unmarshal(b, &cfg); err != nil {
		return Config{}, fmt.Errorf("cluster: machine config: %w", err)
	}
	return cfg, nil
}

// Cluster is N chips on one shared deterministic clock.
type Cluster struct {
	cfg   Config
	eng   *sim.Engine
	inter *mem.NoC
	chips []*accel.Accelerator
	part  *Partition
	tel   *accel.Telemetry // the machine's one bundle

	stealArmed bool
	adoptBusy  []bool // helper chip has an in-flight or retrying adoption
	inFlight   int
	// idleScratch and busyScratch are stealCheck's chip lists, kept
	// between checks so a check allocates nothing.
	idleScratch, busyScratch []int
	// migFree recycles delivered migration messages.
	migFree []*migration

	// Migrations counts delivered chip-level subtree transfers;
	// LinesSent/LinesRecv count interconnect payload lines at carve and
	// adopt time (the sent == received identity).
	Migrations int64
	LinesSent  int64
	LinesRecv  int64
	// AdoptRetries counts deliveries that found no PE able to adopt and
	// went back to sleep (forced mid-run migrations mostly).
	AdoptRetries int64
}

// Actor ops for the cluster scheduler's event callbacks.
const (
	opStealCheck = iota
	opArmStealIfNeeded
	opDeliverMigration
)

// migration is one in-flight chip-to-chip subtree transfer, recycled
// through the cluster's free list once adopted.
type migration struct {
	to    int
	x     accel.SplitExport
	force bool
}

// Act dispatches the cluster's event callbacks (sim.Actor).
func (c *Cluster) Act(op int, arg any) {
	switch op {
	case opStealCheck:
		c.stealCheck()
	case opArmStealIfNeeded:
		c.armStealIfNeeded()
	case opDeliverMigration:
		c.deliverMigration(arg.(*migration))
	default:
		panic("cluster: unknown actor op")
	}
}

// New builds a cluster for graph g and schedule s: one shared engine,
// the static partition, and cfg.Chips accelerator instances whose root
// sets are the partition's. The graph itself is replicated on every
// chip (G²Miner's multi-GPU arrangement); only the work is partitioned.
func New(g *graph.Graph, s *pattern.Schedule, cfg Config) (*Cluster, error) {
	if cfg.Chips < 1 {
		return nil, fmt.Errorf("cluster: need at least one chip, got %d", cfg.Chips)
	}
	mode, err := ParseMode(string(cfg.Partition))
	if err != nil {
		return nil, err
	}
	cfg.Partition = mode
	if cfg.Interconnect.Links <= 0 {
		cfg.Interconnect.Links = cfg.Chips
	}
	if cfg.Chip.Scheme != accel.SchemeShogun || cfg.Chips < 2 {
		// Chip-level splitting rides the Shogun task tree and needs a
		// second chip; other schemes run partitioned but cannot migrate
		// subtrees.
		cfg.Steal = false
	}
	if cfg.Steal && cfg.Chip.BalancePeriod < 1 {
		return nil, fmt.Errorf("cluster: stealing needs Chip.BalancePeriod >= 1 cycle, got %d", cfg.Chip.BalancePeriod)
	}
	part, err := NewPartition(g, mode, cfg.Chips, cfg.PartitionSeed)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		eng:       sim.NewEngine(),
		inter:     mem.NewNoC(cfg.Interconnect),
		part:      part,
		adoptBusy: make([]bool, cfg.Chips),
	}
	if c.tel, err = accel.NewTelemetry(cfg.Chip, c.eng, c.Busy); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// One candidate-buffer pool for the machine: a migrated snapshot is
	// taken on the victim chip and released on the adopter.
	cands := task.NewCandPool(g)
	for i := 0; i < cfg.Chips; i++ {
		chipCfg := cfg.Chip
		if chipCfg.Tracer != nil {
			chipCfg.Tracer = chipTracer{chipCfg.Tracer, i * chipCfg.NumPEs}
		}
		chip, err := accel.NewShared(g, s, chipCfg, c.eng, part.Roots[i], c.tel, cands, i*chipCfg.NumPEs)
		if err != nil {
			return nil, fmt.Errorf("cluster: chip %d: %w", i, err)
		}
		if cfg.Steal {
			chip.OnChipIdle = c.armSteal
		}
		c.chips = append(c.chips, chip)
	}
	return c, nil
}

// chipTracer numbers a chip's trace events machine-wide: chip c's PE p
// reports as PE c×NumPEs+p, the order Result.Machine lists PerPE in, so
// one shared trace writer keeps every chip's PEs on their own tracks.
type chipTracer struct {
	t    trace.Tracer
	base int
}

func (ct chipTracer) TaskDone(ev trace.Event) {
	ev.PE += ct.base
	ct.t.TaskDone(ev)
}

// Busy reports whether any chip still holds work or a migration is in
// flight — the telemetry tick, steal-loop re-arm and chaos-harness tick
// predicate.
func (c *Cluster) Busy() bool {
	if c.inFlight > 0 {
		return true
	}
	for _, chip := range c.chips {
		if !chip.ChipIdle() {
			return true
		}
	}
	return false
}

// armSteal schedules one work-stealing check (debounced), mirroring the
// intra-chip balance loop one level up.
func (c *Cluster) armSteal() {
	if c.stealArmed || !c.cfg.Steal {
		return
	}
	c.stealArmed = true
	c.eng.PostAfter(1, c, opStealCheck, nil)
}

func (c *Cluster) armStealIfNeeded() {
	if c.Busy() {
		c.armSteal()
	}
}

// stealCheck detects cluster-level imbalance — quiet chips while others
// stay busy — and migrates one carved subtree per idle chip, paying the
// interconnect's three-message transfer (root+range, set size, candidate
// lines; §4.1's protocol lifted one level). Multiple rounds occur
// naturally: the check re-arms while the cluster stays busy.
func (c *Cluster) stealCheck() {
	c.stealArmed = false
	idle, busyChips := c.idleScratch[:0], c.busyScratch[:0]
	for i, chip := range c.chips {
		if chip.ChipIdle() && !c.adoptBusy[i] {
			idle = append(idle, i)
		} else if !chip.ChipIdle() {
			busyChips = append(busyChips, i)
		}
	}
	c.idleScratch, c.busyScratch = idle, busyChips
	if len(idle) > 0 && len(busyChips) > 0 {
		h := 0
		for _, v := range busyChips {
			if h >= len(idle) {
				break
			}
			x, ok := c.chips[v].CarveExport()
			if !ok {
				continue
			}
			c.sendMigration(idle[h], x, false)
			h++
		}
	}
	if c.Busy() {
		c.eng.PostAfter(c.cfg.Chip.BalancePeriod, c, opArmStealIfNeeded, nil)
	}
}

// sendMigration ships a carved payload over the interconnect (§4.1's
// three messages), then posts a delivery event on the adopting chip at
// the payload's arrival.
func (c *Cluster) sendMigration(to int, x accel.SplitExport, force bool) {
	var m *migration
	if k := len(c.migFree); k > 0 {
		m = c.migFree[k-1]
		c.migFree = c.migFree[:k-1]
	} else {
		m = new(migration)
	}
	*m = migration{to: to, x: x, force: force}
	lines := x.Lines()
	arrive := c.inter.SendSplit(c.eng.Now(), lines)
	c.LinesSent += lines
	c.adoptBusy[to] = true
	c.inFlight++
	c.eng.Post(arrive, c, opDeliverMigration, m)
}

// deliverMigration installs the migrated subtree on the adopting chip,
// retrying while no PE can take it — the carved range must never be
// dropped. Retries always terminate: once the cluster otherwise drains,
// every PE on the adopter is idle and adoption succeeds.
func (c *Cluster) deliverMigration(m *migration) {
	if c.chips[m.to].TryAdopt(&m.x, m.force) {
		c.adoptBusy[m.to] = false
		c.inFlight--
		c.LinesRecv += m.x.Lines()
		c.Migrations++
		*m = migration{}
		c.migFree = append(c.migFree, m)
		return
	}
	c.AdoptRetries++
	c.eng.PostAfter(c.cfg.Chip.BalancePeriod, c, opDeliverMigration, m)
}

// ForceMigrate carves one chip-level split and ships it to the next chip
// regardless of the imbalance signal — the chaos harness's cluster-scope
// fault injection (mirrors accel.ForceSplit). The adopting chip may be
// busy; delivery retries until a PE accepts. Reports whether a migration
// was initiated. Only meaningful when stealing is enabled.
func (c *Cluster) ForceMigrate() bool {
	if !c.cfg.Steal {
		return false
	}
	for v := range c.chips {
		x, ok := c.chips[v].CarveExport()
		if !ok {
			continue
		}
		for off := 1; off < len(c.chips); off++ {
			h := (v + off) % len(c.chips)
			if c.adoptBusy[h] {
				continue
			}
			c.sendMigration(h, x, true)
			return true
		}
		// Every other chip already has an adoption in flight: deliver to
		// the next chip anyway once its slot frees — retrying here keeps
		// the carved range alive.
		c.sendMigration((v+1)%len(c.chips), x, true)
		return true
	}
	return false
}

// Engine exposes the shared event engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Interconnect exposes the chip-to-chip fabric (chaos perturbation,
// tests).
func (c *Cluster) Interconnect() *mem.NoC { return c.inter }

// Chips exposes the per-chip accelerators.
func (c *Cluster) Chips() []*accel.Accelerator { return c.chips }

// Partition exposes the static vertex partition.
func (c *Cluster) Partition() *Partition { return c.part }

// ChipStats is the cluster's view of one chip, beside its full Result
// in ChipResults.
type ChipStats struct {
	Vertices    int     // roots the partition dealt it
	Occupancy   float64 // busy slot-cycles / (capacity × cluster cycles)
	MigratedOut int64
	MigratedIn  int64
}

// Result aggregates one cluster run.
type Result struct {
	Chips     int
	Partition Mode
	Scheme    accel.Scheme
	Cycles    sim.Time // cluster makespan: latest chip completion
	Events    int64

	Embeddings int64
	Tasks      int64
	LeafTasks  int64

	Migrations    int64
	AdoptRetries  int64
	InterMessages int64
	InterLines    int64

	// MaxOccupancy / MeanOccupancy summarize chip-level load balance —
	// the headline scaling metric (max/mean == 1 is perfect balance).
	MaxOccupancy  float64
	MeanOccupancy float64

	PerChip []ChipStats
	// ChipResults carries each chip's full single-chip Result, without a
	// series of its own.
	ChipResults []*accel.Result
	// Telemetry is the machine series, the one the machine's bundle
	// sampled (nil when sampling was off): per-PE columns numbered
	// machine-wide (chip c's PE p is pe{c×PEs+p}), chip-scope columns
	// summed over chips, engine/events counted once.
	Telemetry *telemetry.TimeSeries `json:",omitempty"`
	// Digests summarises the machine's histograms, one set for all chips.
	Digests map[string]telemetry.HistSummary `json:",omitempty"`
}

// RunContext drives all chips on the shared clock under the run governor
// (budgets from the chip config). Failure modes mirror accel.RunContext:
// wrapped sim sentinels on tripped budgets or cancellation,
// *sim.DeadlockError when the queue drains with work or a migration
// still pending, contained panics as *sim.InvariantError.
func (c *Cluster) RunContext(ctx context.Context) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &sim.InvariantError{
				Op:         "cluster: run",
				PanicValue: r,
				Stack:      string(debug.Stack()),
				Snapshot:   c.snapshot(),
			}
		}
	}()
	for _, chip := range c.chips {
		chip.Start()
	}
	if err := c.eng.RunGoverned(ctx, c.chips[0].Budget()); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for _, chip := range c.chips {
		if err := chip.Drained(); err != nil {
			return nil, err
		}
	}
	if c.inFlight != 0 {
		return nil, &sim.DeadlockError{Op: "cluster: run", Snapshot: c.snapshot()}
	}
	if err := c.Verify(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return c.collect(), nil
}

// snapshot captures cluster-scope diagnostics for invariant/deadlock
// errors: engine progress plus per-chip idle/migration state.
func (c *Cluster) snapshot() *sim.Snapshot {
	s := c.eng.Snapshot()
	for i, chip := range c.chips {
		s.Notes = append(s.Notes, fmt.Sprintf(
			"chip%d: idle=%t adoptBusy=%t migratedOut=%d migratedIn=%d",
			i, chip.ChipIdle(), c.adoptBusy[i], chip.MigratedOut, chip.MigratedIn))
	}
	s.Notes = append(s.Notes, fmt.Sprintf(
		"cluster: inFlight=%d delivered=%d retries=%d", c.inFlight, c.Migrations, c.AdoptRetries))
	return s
}

func (c *Cluster) collect() *Result {
	r := &Result{
		Chips:         c.cfg.Chips,
		Partition:     c.cfg.Partition,
		Scheme:        c.cfg.Chip.Scheme,
		Events:        c.eng.Processed,
		Migrations:    c.Migrations,
		AdoptRetries:  c.AdoptRetries,
		InterMessages: c.inter.Messages,
		InterLines:    c.inter.LinesMoved,
	}
	for _, chip := range c.chips {
		if end := chip.EndTime(); end > r.Cycles {
			r.Cycles = end
		}
	}
	var occSum float64
	for i, chip := range c.chips {
		cr := chip.Collect()
		r.ChipResults = append(r.ChipResults, cr)
		st := ChipStats{
			Vertices:    len(c.part.Roots[i]),
			MigratedOut: chip.MigratedOut,
			MigratedIn:  chip.MigratedIn,
		}
		if r.Cycles > 0 {
			st.Occupancy = float64(chip.BusySlotCycles()) /
				(float64(chip.SlotCapacityPerCycle()) * float64(r.Cycles))
		}
		occSum += st.Occupancy
		if st.Occupancy > r.MaxOccupancy {
			r.MaxOccupancy = st.Occupancy
		}
		r.PerChip = append(r.PerChip, st)
		r.Embeddings += cr.Embeddings
		r.Tasks += cr.Tasks
		r.LeafTasks += cr.LeafTasks
	}
	r.MeanOccupancy = occSum / float64(len(c.chips))
	r.Telemetry = c.tel.Series()
	r.Digests = c.Histograms()
	return r
}

// ImbalanceRatio reports max/mean chip occupancy from a collected
// result (1.0 = perfect balance; 0 when idle).
func (r *Result) ImbalanceRatio() float64 {
	if r.MeanOccupancy == 0 {
		return 0
	}
	return r.MaxOccupancy / r.MeanOccupancy
}

// Machine folds the per-chip results into one machine-level
// accel.Result, the report of a run at any chip count. Counts and cycle
// attributions are summed and rates averaged over chips; Cycles and
// Events are the cluster's (one shared clock); PeakLiveSets is the
// largest chip's; PerPE lists every chip's PEs in machine-wide order
// (chip c's PE p at c×PEs+p, the numbering trace events carry); and
// Telemetry and Digests are the cluster's. At one chip it equals the
// Result a standalone accelerator's run returns, series and digests too.
func (r *Result) Machine() *accel.Result {
	m := &accel.Result{
		Scheme: r.ChipResults[0].Scheme, Cycles: r.Cycles, Events: r.Events,
		Embeddings: r.Embeddings, Tasks: r.Tasks, LeafTasks: r.LeafTasks,
		Telemetry: r.Telemetry, Digests: r.Digests,
	}
	n := float64(len(r.ChipResults))
	for _, c := range r.ChipResults {
		m.IUUtil += c.IUUtil / n
		m.SlotOccupancy += c.SlotOccupancy / n
		m.L1HitRate += c.L1HitRate / n
		m.L1AvgLatency += c.L1AvgLatency / n
		m.L2HitRate += c.L2HitRate / n
		m.DRAMBandwidth += c.DRAMBandwidth / n
		m.IntermediateLinesPerTask += c.IntermediateLinesPerTask / n
		m.DRAMReads += c.DRAMReads
		m.DRAMWrites += c.DRAMWrites
		m.NoCLines += c.NoCLines
		m.Splits += c.Splits
		m.Merges += c.Merges
		m.ConservativeTransitions += c.ConservativeTransitions
		m.PeakLiveSets = max(m.PeakLiveSets, c.PeakLiveSets)
		m.Breakdown.Add(c.Breakdown)
		m.PerPE = append(m.PerPE, c.PerPE...)
	}
	return m
}
