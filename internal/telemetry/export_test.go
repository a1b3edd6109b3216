package telemetry

// Accessors only tests read; programs read gauges through Snapshot.

// Value returns the current gauge value (0 on the zero handle).
func (g Gauge) Value() int64 {
	if g.v == nil {
		return 0
	}
	return g.v.Load()
}
