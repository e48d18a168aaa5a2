package bench

import (
	"fmt"

	"shogun/internal/accel"
	"shogun/internal/sim"
	"shogun/internal/telemetry"
)

// TailImbalance summarizes the end-of-run load imbalance: the mean
// max/mean PE-occupancy ratio over the last `frac` of the sampled epochs,
// skipping all-idle epochs (ratio 0). The tail is where static root
// dispatch strands work on straggler PEs (Fig. 11's phenomenology), so
// it is the series' most informative slice.
func TailImbalance(pts []telemetry.ImbalancePoint, frac float64) float64 {
	if len(pts) == 0 || frac <= 0 {
		return 0
	}
	start := len(pts) - int(float64(len(pts))*frac)
	if start < 0 {
		start = 0
	}
	sum, n := 0.0, 0
	for _, p := range pts[start:] {
		if p.Ratio > 0 {
			sum += p.Ratio
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// meanRatio averages the non-idle imbalance ratios of one slice.
func meanRatio(pts []telemetry.ImbalancePoint) float64 {
	sum, n := 0.0, 0
	for _, p := range pts {
		if p.Ratio > 0 {
			sum += p.Ratio
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// imbalanceData runs Shogun with splitting off vs on under the epoch
// sampler and returns the grid plus both imbalance-over-time series.
func imbalanceData(o Options) (*Grid, map[string][]telemetry.ImbalancePoint, error) {
	// Skewed R-MAT + a deep 4-level pattern: the straggler-heavy regime
	// where a few hub-rooted task trees dominate the tail (same dataset
	// as Fig. 11; the deeper pattern gives splitting subtree leverage
	// that a 2-level triangle count does not have).
	g := o.dataset("wi")
	s := mustSchedule("4cl")
	sampleEvery := sim.Time(2048)
	if o.Quick {
		sampleEvery = 512
	}
	cfgOff := accel.DefaultConfig(accel.SchemeShogun)
	cfgOff.NumPEs = 20
	cfgOff.SampleEvery = sampleEvery
	cfgOff.SampleCap = 256
	cfgOn := cfgOff
	cfgOn.EnableSplitting = true
	grid, err := runCells(o, []cell{
		{"off", g, s, cfgOff},
		{"on", g, s, cfgOn},
	})
	if err != nil {
		return nil, nil, err
	}
	series := map[string][]telemetry.ImbalancePoint{}
	for _, key := range []string{"off", "on"} {
		if res := grid.Res(key); res != nil && res.Telemetry != nil {
			series[key] = res.Telemetry.Imbalance("/resident")
		}
	}
	return grid, series, nil
}

// Imbalance renders load imbalance over time — max/mean PE occupancy per
// run decile, splitting off vs on — from the telemetry sampler's
// per-epoch gauges. It is the time-resolved companion of Fig. 11: the
// cycle totals there show THAT splitting helps; this shows WHEN (the
// tail deciles, where static dispatch strands the stragglers).
func Imbalance(o Options) (*Table, error) {
	grid, series, err := imbalanceData(o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "imbalance",
		Title:  "Load imbalance over time (max/mean PE occupancy), wi/4cl, 20 PEs",
		Header: []string{"Run decile", "no-split", "split"},
	}
	off, on := series["off"], series["on"]
	for d := 0; d < 10; d++ {
		slice := func(pts []telemetry.ImbalancePoint) string {
			if len(pts) == 0 {
				return "fail"
			}
			lo, hi := len(pts)*d/10, len(pts)*(d+1)/10
			if r := meanRatio(pts[lo:hi]); r > 0 {
				return f2(r)
			}
			return "idle"
		}
		t.AddRow(fmt.Sprintf("%d-%d%%", d*10, (d+1)*10), slice(off), slice(on))
	}
	if len(off) > 0 && len(on) > 0 {
		t.AddRow("tail(30%)", f2(TailImbalance(off, 0.3)), f2(TailImbalance(on, 0.3)))
		t.AddNote("ratio 1.0 = perfectly balanced; splitting flattens the tail deciles")
	}
	if onRes := grid.Res("on"); onRes != nil {
		t.AddNote("split transfers: %d", onRes.Splits)
	}
	grid.annotate(t)
	return t, nil
}
