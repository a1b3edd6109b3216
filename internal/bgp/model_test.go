package bgp

// The map-backed BGP speaker this package used before the row-table
// one, kept (minus telemetry, the read accessors and checkpointing) as
// the reference model TestNodeMatchesModel runs the real Node against,
// event by event. One deliberate difference from that implementation:
// redecideCrossing re-decides in ascending destination order, where
// the original ranged over a map and so was not deterministic.

import (
	"slices"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// refNode is the reference speaker; see Node for what the state means.
type refNode struct {
	cfg  Config
	pol  policy.Policy
	env  sim.Env
	self routing.NodeID
	adv  *adversary.Model // nil for honest runs
	rel  map[routing.NodeID]topology.Relationship
	// nbrs is the fixed neighbor set in ascending ID order, cached so the
	// decision process doesn't rebuild and re-sort it per destination.
	nbrs []routing.NodeID

	// adjIn[n][d] is the candidate at this node via neighbor n for
	// destination d: the neighbor's announced path with self prepended.
	adjIn map[routing.NodeID]map[routing.NodeID]routing.Path
	// best is the Loc-RIB: the selected candidate per destination.
	best map[routing.NodeID]policy.Candidate
	// advertised[n][d] is the path last announced to neighbor n.
	advertised map[routing.NodeID]map[routing.NodeID]routing.Path
	// MRAI state: destinations awaiting the timer, and whether the
	// timer is armed, per neighbor.
	pending   map[routing.NodeID]map[routing.NodeID]struct{}
	mraiArmed map[routing.NodeID]bool
	// BGP-RCN state (rcn.go): masked failed links, their generation
	// sequence, and the per-neighbor root-cause delivery queues.
	failed     map[edgeKey]uint64
	failedGen  uint64
	pendingRCN map[routing.NodeID][]rcnNotice

	// Scratch buffers reused across the decision process's hot calls.
	candBuf []policy.Candidate
	destBuf []routing.NodeID // flushPending only: never reused re-entrantly
}

var _ sim.Protocol = (*refNode)(nil)

func newRefNode(cfg Config, env sim.Env) *refNode {
	pol := cfg.Policy
	if pol == nil {
		pol = policy.GaoRexford{}
	}
	n := &refNode{
		cfg:        cfg,
		pol:        pol,
		env:        env,
		self:       env.Self(),
		adv:        cfg.Adversary,
		rel:        make(map[routing.NodeID]topology.Relationship),
		adjIn:      make(map[routing.NodeID]map[routing.NodeID]routing.Path),
		best:       make(map[routing.NodeID]policy.Candidate),
		advertised: make(map[routing.NodeID]map[routing.NodeID]routing.Path),
		pending:    make(map[routing.NodeID]map[routing.NodeID]struct{}),
		mraiArmed:  make(map[routing.NodeID]bool),
	}
	for _, nb := range env.Neighbors() { // ascending by ID
		n.rel[nb.ID] = nb.Rel
		n.nbrs = append(n.nbrs, nb.ID)
		n.adjIn[nb.ID] = make(map[routing.NodeID]routing.Path)
		n.advertised[nb.ID] = make(map[routing.NodeID]routing.Path)
		n.pending[nb.ID] = make(map[routing.NodeID]struct{})
	}
	if cfg.RCN {
		n.pendingRCN = make(map[routing.NodeID][]rcnNotice)
	}
	return n
}

// Start implements sim.Protocol: originate the node's own destination
// and announce it to every neighbor.
func (n *refNode) Start(env sim.Env) {
	n.env = env
	n.best[n.self] = policy.Candidate{
		Path:  routing.Path{n.self},
		Class: policy.ClassOwn,
		Via:   routing.None,
	}
	env.RouteChangedVia(n.self, routing.None, routing.None)
	for _, nb := range n.nbrs {
		n.scheduleAdvert(nb, n.self)
	}
	// A hijacking attacker additionally announces its victim destination
	// from session start; advertise supplies the forged path.
	if v, ok := n.adv.HijackVictim(n.self); ok {
		for _, nb := range n.nbrs {
			n.scheduleAdvert(nb, v)
		}
	}
}

// Handle implements sim.Protocol.
func (n *refNode) Handle(from routing.NodeID, msg sim.Message) {
	u, ok := msg.(Update)
	if !ok {
		return
	}
	rib, ok := n.adjIn[from]
	if !ok {
		return
	}
	if n.cfg.RCN {
		// Root cause notifications: mask the failed links and queue them
		// for propagation, then re-decide what the masks affect.
		for _, l := range u.FailedLinks {
			e := edgeOf(l.From, l.To)
			if _, already := n.failed[e]; already {
				continue
			}
			n.queueRCN(l)
			n.maskEdge(e)
			n.redecideCrossing(e)
		}
		// A freshly announced path crossing a masked link is evidence
		// the link is back: lift those masks.
		for i := 0; i+1 < len(u.Path); i++ {
			n.unmaskEdge(edgeOf(u.Path[i], u.Path[i+1]))
		}
	}
	if u.Path == nil || !n.pol.Accept(n.self, from, u.Path) {
		// Withdrawal, or a path the import filter rejects (e.g. it
		// contains this node): either way it replaces — and removes —
		// whatever the neighbor previously announced for the destination.
		if _, had := rib[u.Dest]; had {
			delete(rib, u.Dest)
			n.runDecision(u.Dest)
		}
	} else {
		rib[u.Dest] = u.Path.Prepend(n.self)
		n.runDecision(u.Dest)
	}
}

// queueRCN schedules delivery of the root cause to every neighbor with
// that neighbor's next real update, valid until the mask TTL elapses.
func (n *refNode) queueRCN(l routing.Link) {
	if n.pendingRCN == nil {
		return
	}
	ttl := n.cfg.rcnMaskTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	deadline := n.env.Now() + ttl
	for _, nb := range n.nbrs {
		n.pendingRCN[nb] = append(n.pendingRCN[nb], rcnNotice{link: l, deadline: deadline})
	}
}

// runDecision re-selects the best route for dest and, on change,
// schedules advertisements to every neighbor.
func (n *refNode) runDecision(dest routing.NodeID) {
	cands := n.candBuf[:0]
	if dest == n.self {
		cands = append(cands, policy.Candidate{
			Path:  routing.Path{n.self},
			Class: policy.ClassOwn,
			Via:   routing.None,
		})
	}
	for _, nb := range n.nbrs {
		if p, ok := n.adjIn[nb][dest]; ok {
			if n.cfg.RCN && n.masked(p) {
				continue // RCN: never explore a path over a failed link
			}
			cands = append(cands, policy.Candidate{
				Path:  p,
				Class: policy.ClassOf(n.rel[nb]),
				Via:   nb,
			})
		}
	}
	// policy.Best copies the winner out by value, so the buffer can be
	// reused on the next decision.
	newBest := policy.Best(n.pol, n.self, cands)
	n.candBuf = cands[:0]
	old, had := n.best[dest]
	if had && newBest.Path.Equal(old.Path) && newBest.Via == old.Via {
		return
	}
	oldVia := routing.None
	if had {
		oldVia = old.Via
	}
	newVia := routing.None
	if len(newBest.Path) == 0 {
		if !had {
			return
		}
		delete(n.best, dest)
	} else {
		n.best[dest] = newBest
		newVia = newBest.Via
	}
	n.env.RouteChangedVia(dest, oldVia, newVia)
	for _, nb := range n.nbrs {
		n.scheduleAdvert(nb, dest)
	}
}

// scheduleAdvert queues (or immediately performs) the advertisement of
// dest's current state to neighbor nb, honoring MRAI.
func (n *refNode) scheduleAdvert(nb, dest routing.NodeID) {
	if !n.env.LinkIsUp(nb) {
		return
	}
	if n.cfg.MRAI <= 0 {
		n.advertise(nb, dest)
		return
	}
	n.pending[nb][dest] = struct{}{}
	if n.mraiArmed[nb] {
		return
	}
	n.flushPending(nb)
	n.armMRAI(nb)
}

// armMRAI starts the per-neighbor MRAI timer; when it fires, held
// updates are flushed and the timer re-arms if any were sent.
func (n *refNode) armMRAI(nb routing.NodeID) {
	n.mraiArmed[nb] = true
	n.env.After(n.cfg.MRAI, func() {
		n.mraiArmed[nb] = false
		if len(n.pending[nb]) > 0 && n.env.LinkIsUp(nb) {
			n.flushPending(nb)
			n.armMRAI(nb)
		}
	})
}

// flushPending advertises every held destination to nb.
func (n *refNode) flushPending(nb routing.NodeID) {
	dests := n.destBuf[:0]
	for d := range n.pending[nb] {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	// advertise never re-enters flushPending, so destBuf stays coherent
	// for the duration of the loop.
	n.destBuf = dests
	for _, d := range dests {
		delete(n.pending[nb], d)
		n.advertise(nb, d)
	}
}

// advertise sends the current state of dest to neighbor nb if it differs
// from what was last advertised: the best path when exportable, a
// withdrawal otherwise. Attacker nodes (Config.Adversary) deviate here
// — and only here — on the control plane: a hijacker forges an
// origination of its victim destination, and a leaker re-exports
// provider/peer routes to providers and peers where the export rule
// forbids it (CAIR's route-leak pattern). The honest branch is
// untouched when no model is attached.
func (n *refNode) advertise(nb, dest routing.NodeID) {
	var toSend routing.Path
	injected := false
	if v, ok := n.adv.HijackVictim(n.self); ok && dest == v {
		toSend = routing.Path{n.self} // forged origination of the victim
		injected = true
	} else if best, ok := n.best[dest]; ok &&
		!best.Path.Contains(nb) { // sender-side loop avoidance
		switch {
		case n.pol.Export(n.self, best.Class, n.rel[nb]):
			toSend = best.Path
		case n.adv.Leaks(n.self) && adversary.LeakClass(best.Class) && adversary.LeakTarget(n.rel[nb]):
			toSend = best.Path
			injected = true
		}
	}
	prev, hadPrev := n.advertised[nb][dest]
	if toSend == nil {
		if !hadPrev {
			return
		}
		delete(n.advertised[nb], dest)
		n.env.Send(nb, Update{Dest: dest, FailedLinks: n.drainRCN(nb)})
		return
	}
	if hadPrev && prev.Equal(toSend) {
		return
	}
	// Paths are immutable once installed (Prepend copies), so the best
	// path can back both the advertised record and the in-flight update
	// without defensive clones.
	n.advertised[nb][dest] = toSend
	n.env.Send(nb, Update{Dest: dest, Path: toSend, FailedLinks: n.drainRCN(nb)})
	if injected {
		n.adv.NoteInjected(dest, 1)
	}
}

// drainRCN empties neighbor nb's queued root cause notifications for
// attachment to the update being sent, dropping notices whose episode
// has already expired.
func (n *refNode) drainRCN(nb routing.NodeID) []routing.Link {
	if n.pendingRCN == nil {
		return nil
	}
	queued := n.pendingRCN[nb]
	if len(queued) == 0 {
		return nil
	}
	delete(n.pendingRCN, nb)
	now := n.env.Now()
	out := make([]routing.Link, 0, len(queued))
	for _, q := range queued {
		if q.deadline >= now {
			out = append(out, q.link)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// LinkDown implements sim.Protocol: flush all state learned from and
// advertised to the failed neighbor, then re-run the decision process
// for every destination the neighbor had supplied a candidate for.
func (n *refNode) LinkDown(nb routing.NodeID) {
	if n.cfg.RCN {
		n.queueRCN(routing.Link{From: n.self, To: nb})
		n.maskEdge(edgeOf(n.self, nb))
	}
	rib := n.adjIn[nb]
	affected := make([]routing.NodeID, 0, len(rib))
	for d := range rib {
		affected = append(affected, d)
	}
	slices.Sort(affected)
	n.adjIn[nb] = make(map[routing.NodeID]routing.Path)
	n.advertised[nb] = make(map[routing.NodeID]routing.Path)
	n.pending[nb] = make(map[routing.NodeID]struct{})
	for _, d := range affected {
		n.runDecision(d)
	}
	if n.cfg.RCN {
		n.redecideCrossing(edgeOf(n.self, nb))
	}
}

// LinkUp implements sim.Protocol: session re-establishment — advertise
// the full table to the recovered neighbor.
func (n *refNode) LinkUp(nb routing.NodeID) {
	if n.cfg.RCN {
		delete(n.pendingRCN, nb) // stale notices must not greet the new session
		n.unmaskEdge(edgeOf(n.self, nb))
	}
	dests := make([]routing.NodeID, 0, len(n.best))
	for d := range n.best {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	for _, d := range dests {
		n.scheduleAdvert(nb, d)
	}
	// A hijack victim destination is advertised without a best-path
	// entry, so the table walk above misses it.
	if v, ok := n.adv.HijackVictim(n.self); ok {
		if _, has := n.best[v]; !has {
			n.scheduleAdvert(nb, v)
		}
	}
}

// maskEdge suppresses every candidate crossing the failed link and
// schedules the mask's expiry.
func (n *refNode) maskEdge(e edgeKey) {
	if n.failed == nil {
		n.failed = make(map[edgeKey]uint64)
	}
	n.failedGen++
	gen := n.failedGen
	n.failed[e] = gen
	ttl := n.cfg.rcnMaskTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	n.env.After(ttl, func() {
		if n.failed[e] != gen {
			return // lifted or re-masked since
		}
		delete(n.failed, e)
		n.redecideCrossing(e)
	})
}

// unmaskEdge lifts the mask (fresh evidence the link works), cancels any
// queued notices about the link, and re-decides the destinations the
// mask was suppressing.
func (n *refNode) unmaskEdge(e edgeKey) {
	for nb, queued := range n.pendingRCN {
		kept := queued[:0]
		for _, q := range queued {
			if edgeOf(q.link.From, q.link.To) != e {
				kept = append(kept, q)
			}
		}
		if len(kept) == 0 {
			delete(n.pendingRCN, nb)
		} else {
			n.pendingRCN[nb] = kept
		}
	}
	if _, ok := n.failed[e]; !ok {
		return
	}
	delete(n.failed, e)
	n.redecideCrossing(e)
}

// masked reports whether any hop of p crosses a masked link.
func (n *refNode) masked(p routing.Path) bool {
	if len(n.failed) == 0 {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if _, ok := n.failed[edgeOf(p[i], p[i+1])]; ok {
			return true
		}
	}
	return false
}

// redecideCrossing re-runs the decision process, in ascending
// destination order, for every destination that has a candidate
// crossing e (its eligibility just changed).
func (n *refNode) redecideCrossing(e edgeKey) {
	var affected []routing.NodeID
	for _, rib := range n.adjIn {
		for d, p := range rib {
			if pathCrosses(p, e) {
				affected = append(affected, d)
			}
		}
	}
	slices.Sort(affected)
	for _, d := range slices.Compact(affected) {
		n.runDecision(d)
	}
}
