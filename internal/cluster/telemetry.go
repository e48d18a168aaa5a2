package cluster

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"shogun/internal/telemetry"
)

// machineSeries merges the chips' epoch series into the machine series.
// Per-PE columns ("pe{p}/…") are renumbered machine-wide, chip c's PE p
// becoming pe{c×pes+p}. Every other column is summed over chips, except
// engine/events: all chips count the one shared engine, so it is read
// once, from chip 0. At one chip the result is that chip's series; chip
// 0's columns are shared, not copied, until a second chip adds into
// them. The grids align because every chip samples on the shared clock
// with the same interval and capacity and KeepSampling holds every
// sampler live until the cluster drains, so decimation triggers at the
// same epoch everywhere; truncating to the shortest grid guards the
// remainder.
func machineSeries(chips []*telemetry.TimeSeries, pes int) *telemetry.TimeSeries {
	if len(chips) == 0 || chips[0] == nil {
		return nil // sampling off (uniform config)
	}
	n := len(chips[0].Cycles)
	for _, ts := range chips[1:] {
		n = min(n, len(ts.Cycles))
	}
	out := &telemetry.TimeSeries{Interval: chips[0].Interval, Cycles: chips[0].Cycles[:n]}
	for c, ts := range chips {
		for _, s := range ts.Series {
			vals := s.Vals[:min(n, len(s.Vals))]
			if rest, ok := strings.CutPrefix(s.Name, "pe"); ok {
				name := s.Name
				if id, tail, ok := strings.Cut(rest, "/"); ok && c > 0 {
					p, _ := strconv.Atoi(id)
					name = fmt.Sprintf("pe%d/%s", c*pes+p, tail)
				}
				out.Series = append(out.Series, telemetry.Series{Name: name, Vals: vals})
				continue
			}
			j := slices.IndexFunc(out.Series, func(o telemetry.Series) bool { return o.Name == s.Name })
			switch {
			case j < 0:
				out.Series = append(out.Series, telemetry.Series{Name: s.Name, Vals: vals})
			case s.Name == "engine/events":
				// The shared engine's count, already read from chip 0.
			default:
				sum := out.Series[j].Vals
				if c == 1 {
					sum = slices.Clone(sum)
					out.Series[j].Vals = sum
				}
				for i, v := range vals {
					sum[i] += v
				}
			}
		}
	}
	return out
}

// Samples is the live machine series: every chip's sampler snapshot
// merged by machineSeries (nil when sampling is off). Samplers are
// mutex-guarded, so another goroutine may read it mid-run.
func (c *Cluster) Samples() *telemetry.TimeSeries {
	series := make([]*telemetry.TimeSeries, len(c.chips))
	for i, chip := range c.chips {
		if tel := chip.Telemetry(); tel != nil {
			series[i] = tel.Sampler.Snapshot()
		}
	}
	return machineSeries(series, c.cfg.Chip.NumPEs)
}

// Histograms is the live machine digest set: each named digest merged
// over every chip (nil when sampling is off).
func (c *Cluster) Histograms() map[string]telemetry.HistSummary {
	var merged map[string]*telemetry.Histogram
	for _, chip := range c.chips {
		tel := chip.Telemetry()
		if tel == nil {
			return nil
		}
		d := tel.Digests()
		if merged == nil {
			merged = d
			continue
		}
		for name, h := range d {
			merged[name].Merge(h)
		}
	}
	return telemetry.Summaries(merged)
}
