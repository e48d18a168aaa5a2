package cluster

import "shogun/internal/accel"

// Telemetry exposes the machine's telemetry bundle to the package's
// external tests.
func (c *Cluster) Telemetry() *accel.Telemetry { return c.tel }
