package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewSamplerValidates(t *testing.T) {
	if _, err := NewSampler(0, 16); err == nil {
		t.Fatal("interval 0 accepted")
	}
	if _, err := NewSampler(-5, 16); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := NewSampler(10, -1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	s, err := NewSampler(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Interval() != 10 {
		t.Fatalf("interval = %d", s.Interval())
	}
}

// TestSamplerGaugeSumsSameName: a probe registered under a name already
// taken joins that column, which records the sum of its probes, and the
// column keeps the place of its first registration.
func TestSamplerGaugeSumsSameName(t *testing.T) {
	s, _ := NewSampler(100, 64)
	s.Gauge("dram/queue", func(int64) int64 { return 2 })
	s.Gauge("pe0/resident", func(int64) int64 { return 7 })
	s.Gauge("dram/queue", func(now int64) int64 { return now })
	s.Sample(100)
	s.Sample(200)
	ts := s.Snapshot()
	if len(ts.Series) != 2 || ts.Series[0].Name != "dram/queue" || ts.Series[1].Name != "pe0/resident" {
		t.Fatalf("columns = %+v, want dram/queue then pe0/resident", ts.Series)
	}
	if got := ts.Col("dram/queue"); len(got) != 2 || got[0] != 102 || got[1] != 202 {
		t.Fatalf("dram/queue = %v, want [102 202]", got)
	}
	if v, ok := s.Last("dram/queue"); !ok || v != 202 {
		t.Fatalf("Last(dram/queue) = %d,%v", v, ok)
	}
}

func TestSamplerColumns(t *testing.T) {
	s, _ := NewSampler(100, 64)
	var a, b int64
	s.Gauge("a", func(now int64) int64 { return a })
	s.Gauge("b", func(now int64) int64 { return b + now })
	for i := int64(0); i < 5; i++ {
		a, b = i, 10*i
		s.Sample(100 * (i + 1))
	}
	ts := s.Snapshot()
	if cycle, n := s.End(); len(ts.Cycles) != 5 || n != 5 || cycle != 500 {
		t.Fatalf("epochs = %d, End() = (%d, %d)", len(ts.Cycles), cycle, n)
	}
	if got := ts.Col("a"); got[4] != 4 {
		t.Fatalf("a = %v", got)
	}
	if got := ts.Col("b"); got[2] != 20+300 {
		t.Fatalf("b = %v", got)
	}
	if ts.Col("missing") != nil {
		t.Fatal("missing column not nil")
	}
	if ts.EndCycle() != 500 {
		t.Fatalf("end cycle = %d", ts.EndCycle())
	}
	if v, ok := s.Last("a"); !ok || v != 4 {
		t.Fatalf("Last(a) = %d,%v", v, ok)
	}
	if _, ok := s.Last("missing"); ok {
		t.Fatal("Last(missing) ok")
	}
}

// TestSamplerDecimation checks the fixed memory bound: the ring halves
// and the interval doubles, and survivors stay uniformly spaced over the
// whole run.
func TestSamplerDecimation(t *testing.T) {
	const cap = 16
	s, _ := NewSampler(10, cap)
	s.Gauge("x", func(now int64) int64 { return now })
	tick := int64(0)
	for i := 0; i < 200; i++ {
		tick += s.Interval()
		s.Sample(tick)
		if _, n := s.End(); n >= cap {
			t.Fatalf("ring exceeded capacity: %d", n)
		}
	}
	ts := s.Snapshot()
	if ts.Interval <= 10 {
		t.Fatalf("interval never doubled: %d", ts.Interval)
	}
	// Timestamps stay strictly increasing across decimations.
	for i := 1; i < len(ts.Cycles); i++ {
		if ts.Cycles[i] <= ts.Cycles[i-1] {
			t.Fatalf("cycles not increasing at %d: %v", i, ts.Cycles)
		}
	}
	// Coverage spans the whole run (within one epoch of the final tick),
	// not just its warm-up.
	if gap := tick - ts.EndCycle(); gap < 0 || gap >= ts.Interval {
		t.Fatalf("last sample %d too far from last tick %d (interval %d)", ts.EndCycle(), tick, ts.Interval)
	}
}

// TestSamplerStorageFollowsRun: no column is reserved at capacity up
// front; every column's room tracks the retained epochs and never
// exceeds the capacity, and values stay intact across growth and
// decimation.
func TestSamplerStorageFollowsRun(t *testing.T) {
	const capSamples = 64
	s, _ := NewSampler(10, capSamples)
	s.Gauge("x", func(now int64) int64 { return now })
	s.Gauge("y", func(now int64) int64 { return -now })
	if c := cap(s.cols[0]); c != 0 {
		t.Fatalf("column reserved %d epochs before the first sample", c)
	}
	tick := int64(0)
	for i := 0; i < 300; i++ {
		tick += s.Interval()
		s.Sample(tick)
		_, n := s.End()
		for _, col := range append([][]int64{s.cycles}, s.cols...) {
			if len(col) != n || cap(col) > capSamples || cap(col) > max(8, 2*n) {
				t.Fatalf("epoch %d: column len %d cap %d for %d retained epochs", i, len(col), cap(col), n)
			}
		}
		ts := s.Snapshot()
		for j, cyc := range ts.Cycles {
			if ts.Col("x")[j] != cyc || ts.Col("y")[j] != -cyc {
				t.Fatalf("epoch %d: row %d holds x=%d y=%d for cycle %d", i, j, ts.Col("x")[j], ts.Col("y")[j], cyc)
			}
		}
	}
}

func TestGaugeAfterSamplePanics(t *testing.T) {
	s, _ := NewSampler(10, 8)
	s.Gauge("a", func(int64) int64 { return 0 })
	s.Sample(10)
	defer func() {
		if recover() == nil {
			t.Fatal("late Gauge registration did not panic")
		}
	}()
	s.Gauge("b", func(int64) int64 { return 0 })
}

func TestTimeSeriesCSVJSON(t *testing.T) {
	s, _ := NewSampler(50, 8)
	s.Gauge("pe0/resident", func(now int64) int64 { return 3 })
	s.Gauge("pe1/resident", func(now int64) int64 { return 1 })
	s.Sample(50)
	s.Sample(100)
	ts := s.Snapshot()

	var csvBuf bytes.Buffer
	if err := ts.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "cycle,pe0/resident,pe1/resident" {
		t.Fatalf("csv header: %q", lines[0])
	}
	if lines[2] != "100,3,1" {
		t.Fatalf("csv row: %q", lines[2])
	}

	var jsonBuf bytes.Buffer
	if err := ts.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonBuf.String(), `"pe0/resident"`) {
		t.Fatalf("json missing series: %s", jsonBuf.String())
	}
}

func TestImbalanceSeries(t *testing.T) {
	s, _ := NewSampler(10, 8)
	vals := map[string]int64{}
	for _, name := range []string{"pe0/resident", "pe1/resident", "pe2/resident"} {
		n := name
		s.Gauge(n, func(int64) int64 { return vals[n] })
	}
	s.Gauge("noc/inflight", func(int64) int64 { return 99 }) // must not match
	vals["pe0/resident"], vals["pe1/resident"], vals["pe2/resident"] = 8, 2, 2
	s.Sample(10)
	vals["pe0/resident"], vals["pe1/resident"], vals["pe2/resident"] = 0, 0, 0
	s.Sample(20)
	pts := s.Snapshot().Imbalance("/resident")
	if len(pts) != 2 {
		t.Fatalf("points: %v", pts)
	}
	if pts[0].Max != 8 || pts[0].Mean != 4 || pts[0].Ratio != 2 {
		t.Fatalf("epoch 0: %+v", pts[0])
	}
	if pts[1].Ratio != 0 {
		t.Fatalf("all-idle epoch should have ratio 0: %+v", pts[1])
	}
	if got := s.Snapshot().Imbalance("/nope"); got != nil {
		t.Fatalf("unmatched suffix: %v", got)
	}
}
