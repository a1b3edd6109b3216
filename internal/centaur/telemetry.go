package centaur

import "centaur/internal/telemetry"

// tele holds the package's cached metric handles; the zero values
// no-op. Package-level because counters are atomic and nodes of every
// concurrent simulation share the process-wide registry.
var tele struct {
	recomputes  telemetry.Counter // centaur.recomputes: solver rounds
	derivations telemetry.Counter // centaur.derivations: DerivePath evaluations
	cacheHits   telemetry.Counter // centaur.derive_cache_hits: memoized derivations served
}

// SetTelemetry points the package's counters at r (nil disables them
// again). Call it before any simulation starts; it is not synchronized
// against concurrently running nodes.
func SetTelemetry(r *telemetry.Registry) {
	tele.recomputes = r.Counter("centaur.recomputes")
	tele.derivations = r.Counter("centaur.derivations")
	tele.cacheHits = r.Counter("centaur.derive_cache_hits")
}
