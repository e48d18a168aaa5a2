package cluster

import "shogun/internal/telemetry"

// Samples is the live machine series, a snapshot of the machine's one
// sampler (nil when sampling is off). The sampler is mutex-guarded, so
// another goroutine may read it mid-run.
func (c *Cluster) Samples() *telemetry.TimeSeries {
	if c.tel.Sampler == nil {
		return nil
	}
	return c.tel.Sampler.Snapshot()
}

// Sampler is the machine's one sampler (nil when sampling is off). It is
// mutex-guarded, so another goroutine may read its last epoch mid-run
// without copying the series.
func (c *Cluster) Sampler() *telemetry.Sampler { return c.tel.Sampler }

// Histograms is the live machine digest set, the summaries of the
// machine's histograms. Cache hits reach them at each sampler epoch and
// at run end.
func (c *Cluster) Histograms() map[string]telemetry.HistSummary {
	return telemetry.Summaries(c.tel.Digests())
}
