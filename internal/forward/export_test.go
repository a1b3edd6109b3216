package forward

import "centaur/internal/sim"

// Walks returns how many evaluations re-walked the flows.
func (t *Tracker) Walks() int64 { return t.walks }

// Observe feeds ev to the tracker as its subscription would.
func (t *Tracker) Observe(ev sim.TraceEvent) { t.observe(ev) }
