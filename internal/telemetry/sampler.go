package telemetry

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Probe reads one gauge at sample time. Probes run inside the simulation
// loop (single-threaded), so they may touch simulator state freely; they
// must not retain references past the call.
type Probe func(now int64) int64

// Sampler snapshots a fixed set of gauges every epoch into a columnar
// ring buffer with a hard memory bound: when the buffer reaches capacity
// it is decimated 2× (every other epoch dropped) and the epoch spacing
// doubles, so the retained samples always span the WHOLE run at uniform
// granularity — never just its warm-up — and memory never exceeds
// cap × (gauges + 1) int64s. Storage grows with the run: all columns
// double together, so a short run holds little more than the epochs it
// sampled.
//
// A column may sum several probes: Gauge under a name already registered
// adds its probe to that column, so one machine-wide sampler holds each
// chip-scope gauge once, summed over chips.
//
// The Sampler does not schedule itself; the engine owner's telemetry
// bundle (accel.Telemetry, one per chip or per machine) calls Sample at
// each epoch boundary and re-arms with the current Interval. Sample and
// the read-side methods are mutex-guarded so a live inspection server
// can snapshot mid-run.
type Sampler struct {
	mu    sync.Mutex
	base  int64 // configured epoch spacing
	every int64 // current spacing (doubles on decimation)
	cap   int

	names  []string
	index  map[string]int // name → column
	probes [][]Probe      // per column; the column records their sum
	cycles []int64
	cols   [][]int64
}

// DefaultSampleCap bounds retained epochs when the caller passes 0.
const DefaultSampleCap = 512

// NewSampler builds a sampler with the given epoch spacing (cycles,
// must be > 0) and sample capacity (0 = DefaultSampleCap).
func NewSampler(every int64, capSamples int) (*Sampler, error) {
	if every <= 0 {
		return nil, fmt.Errorf("telemetry: sample interval must be > 0 cycles, got %d", every)
	}
	if capSamples < 0 {
		return nil, fmt.Errorf("telemetry: sample capacity must be >= 0, got %d", capSamples)
	}
	if capSamples == 0 {
		capSamples = DefaultSampleCap
	}
	if capSamples < 2 {
		capSamples = 2 // decimation needs at least two rows
	}
	return &Sampler{base: every, every: every, cap: capSamples, index: map[string]int{}}, nil
}

// Gauge registers a named probe: a new name opens a column, and a name
// already registered adds p to its column, which records the sum of its
// probes. Register every gauge before the first Sample call; later
// registrations would desynchronize the columns and panic.
func (s *Sampler) Gauge(name string, p Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cycles) > 0 {
		panic("telemetry: Gauge registered after sampling started")
	}
	if i, ok := s.index[name]; ok {
		s.probes[i] = append(s.probes[i], p)
		return
	}
	s.index[name] = len(s.names)
	s.names = append(s.names, name)
	s.probes = append(s.probes, []Probe{p})
	s.cols = append(s.cols, nil)
}

// Interval reports the current epoch spacing (it doubles whenever the
// ring decimates).
func (s *Sampler) Interval() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.every
}

// Sample records one epoch: the timestamp plus every gauge.
func (s *Sampler) Sample(now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.cycles) == cap(s.cycles) {
		s.grow()
	}
	s.cycles = append(s.cycles, now)
	for i, ps := range s.probes {
		var v int64
		for _, p := range ps {
			v += p(now)
		}
		s.cols[i] = append(s.cols[i], v)
	}
	if len(s.cycles) >= s.cap {
		s.decimate()
	}
}

// grow doubles the room of every column at once, up to cap, in one
// allocation they share. Called with mu held.
func (s *Sampler) grow() {
	n := min(max(2*cap(s.cycles), 8), s.cap)
	slab := make([]int64, n*(len(s.cols)+1))
	s.cycles = append(slab[:0:n], s.cycles...)
	for i, col := range s.cols {
		lo := (i + 1) * n
		s.cols[i] = append(slab[lo:lo:lo+n], col...)
	}
}

// decimate halves the retained epochs (keeping even positions so the
// survivors stay uniformly spaced) and doubles the epoch interval.
// Called with mu held.
func (s *Sampler) decimate() {
	n := len(s.cycles) / 2
	for i := 0; i < n; i++ {
		s.cycles[i] = s.cycles[2*i]
	}
	s.cycles = s.cycles[:n]
	for c := range s.cols {
		col := s.cols[c]
		for i := 0; i < n; i++ {
			col[i] = col[2*i]
		}
		s.cols[c] = col[:n]
	}
	if s.every < 1<<62 { // guard the doubling against int64 overflow
		s.every *= 2
	}
}

// Last returns the most recent value of a named gauge.
func (s *Sampler) Last(name string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[name]; ok && len(s.cols[i]) > 0 {
		return s.cols[i][len(s.cols[i])-1], true
	}
	return 0, false
}

// End returns the last sampled timestamp (0 when empty) and the number
// of retained epochs, without copying the series.
func (s *Sampler) End() (cycle int64, epochs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.cycles); n > 0 {
		return s.cycles[n-1], n
	}
	return 0, 0
}

// Snapshot deep-copies the retained series. Safe to call from another
// goroutine while the simulation keeps sampling.
func (s *Sampler) Snapshot() *TimeSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := &TimeSeries{
		Interval: s.every,
		Cycles:   append([]int64(nil), s.cycles...),
	}
	for i, name := range s.names {
		ts.Series = append(ts.Series, Series{Name: name, Vals: append([]int64(nil), s.cols[i]...)})
	}
	return ts
}

// Series is one named gauge column, aligned to TimeSeries.Cycles.
type Series struct {
	Name string  `json:"name"`
	Vals []int64 `json:"vals"`
}

// TimeSeries is an immutable sampler snapshot: one shared timestamp
// column plus one value column per gauge.
type TimeSeries struct {
	Interval int64    `json:"interval"`
	Cycles   []int64  `json:"cycles"`
	Series   []Series `json:"series"`
}

// WriteCSV emits the series as a table: one row per epoch, first column
// the cycle timestamp, then one column per gauge.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(ts.Series)+1)
	header = append(header, "cycle")
	for _, s := range ts.Series {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i, cyc := range ts.Cycles {
		row[0] = strconv.FormatInt(cyc, 10)
		for j, s := range ts.Series {
			row[j+1] = strconv.FormatInt(s.Vals[i], 10)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the snapshot as indented JSON.
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// ImbalancePoint is one epoch of the derived load-imbalance series.
type ImbalancePoint struct {
	Cycle int64   `json:"cycle"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// Ratio is max/mean occupancy — 1.0 is perfect balance; it rises as
	// stragglers hold work while peers idle (the paper's §4.1 signal).
	Ratio float64 `json:"ratio"`
}

// Imbalance derives the max/mean-over-PEs series from every gauge whose
// name ends in suffix (e.g. "/resident" over the per-PE resident-task
// gauges). Epochs where every matched gauge is zero yield Ratio 0.
func (ts *TimeSeries) Imbalance(suffix string) []ImbalancePoint {
	var cols [][]int64
	for _, s := range ts.Series {
		if len(s.Name) >= len(suffix) && s.Name[len(s.Name)-len(suffix):] == suffix {
			cols = append(cols, s.Vals)
		}
	}
	if len(cols) == 0 {
		return nil
	}
	out := make([]ImbalancePoint, len(ts.Cycles))
	for i, cyc := range ts.Cycles {
		var max, sum int64
		for _, c := range cols {
			v := c[i]
			sum += v
			if v > max {
				max = v
			}
		}
		p := ImbalancePoint{Cycle: cyc, Max: float64(max), Mean: float64(sum) / float64(len(cols))}
		if p.Mean > 0 {
			p.Ratio = p.Max / p.Mean
		}
		out[i] = p
	}
	return out
}
