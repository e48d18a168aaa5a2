package cluster

import "shogun/internal/telemetry"

// Samples is the live machine series, a snapshot of the machine's one
// sampler (nil when sampling is off). The sampler is mutex-guarded, so
// another goroutine may read it mid-run.
func (c *Cluster) Samples() *telemetry.TimeSeries {
	if c.tel == nil {
		return nil
	}
	return c.tel.Sampler.Snapshot()
}

// Histograms is the live machine digest set, the summaries of the
// machine's histograms (nil when sampling is off).
func (c *Cluster) Histograms() map[string]telemetry.HistSummary {
	if c.tel == nil {
		return nil
	}
	return telemetry.Summaries(c.tel.Digests())
}
