package forward

import "centaur/internal/sim"

// Walks returns how many evaluations re-walked the flows.
func (t *Tracker) Walks() int64 { return t.walks }

// Observe feeds ev to the tracker as its subscription would.
func (t *Tracker) Observe(ev sim.TraceEvent) { t.observe(ev) }

// Outcomes returns the per-flow classification as of the last
// evaluation, index-aligned with Config.Flows.
func (t *Tracker) Outcomes() []Outcome { return t.cur }

// Flows returns the tracked traffic matrix.
func (t *Tracker) Flows() []Flow { return t.cfg.Flows }
