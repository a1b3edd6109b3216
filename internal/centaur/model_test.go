package centaur

// The map-backed Centaur decision process this package used before the
// array-backed one, kept (minus telemetry, Bloom compression and the
// adversary hooks) as the reference model
// TestNodeMatchesModel runs the real Node against, event by event. It
// also keeps the un-narrowed maskAffect and the unconditional
// mask-expiry round, so the comparison covers those two clean-ups, and
// the incrementally maintained local view (localGraph), which the Node
// dropped for a graph built on demand. It keeps the full-recompute mode
// the Node no longer has, too — every event re-derives every known
// destination with no derive cache — as the oracle for the Node's
// affected-destination rounds.

import (
	"slices"
	"time"

	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// refNode is the reference node; see Node for what the fields mean.
type refNode struct {
	cfg Config
	// full selects full recompute: every event re-solves every known
	// destination and nothing is cached.
	full    bool
	pol     policy.Policy
	env     sim.Env
	self    routing.NodeID
	rel     map[routing.NodeID]topology.Relationship
	nbrList []routing.NodeID

	nbGraph   map[routing.NodeID]*pgraph.Graph
	paths     map[routing.NodeID]routing.Path
	classes   map[routing.NodeID]policy.RouteClass
	vias      map[routing.NodeID]routing.NodeID
	localView *pgraph.View
	views     map[routing.NodeID]*pgraph.View

	pendingFailed []routing.Link
	failed        map[routing.Link]uint64
	failedGen     uint64
	noted         map[routing.Link]uint64
	notedGen      uint64
	derived       map[routing.NodeID]map[routing.NodeID]refDerivedEntry

	destBuf  []routing.NodeID
	addsBuf  []pgraph.LinkInfo
	dirtyBuf map[routing.NodeID]bool

	// derivations counts DerivePathWith calls (cache misses).
	derivations int
}

// refDerivedEntry is one memoized derivation result (ok=false caches a
// derivation failure, which is as expensive to recompute as a success).
type refDerivedEntry struct {
	path routing.Path
	ok   bool
}

func newRefNode(cfg Config, full bool, env sim.Env) *refNode {
	pol := cfg.Policy
	if pol == nil {
		pol = policy.GaoRexford{}
	}
	n := &refNode{
		cfg:       cfg,
		full:      full,
		pol:       pol,
		env:       env,
		self:      env.Self(),
		rel:       make(map[routing.NodeID]topology.Relationship),
		nbGraph:   make(map[routing.NodeID]*pgraph.Graph),
		paths:     make(map[routing.NodeID]routing.Path),
		classes:   make(map[routing.NodeID]policy.RouteClass),
		vias:      make(map[routing.NodeID]routing.NodeID),
		localView: pgraph.NewView(env.Index(), env.Self()),
		views:     make(map[routing.NodeID]*pgraph.View),
	}
	for _, nb := range env.Neighbors() {
		n.rel[nb.ID] = nb.Rel
		n.nbrList = append(n.nbrList, nb.ID)
	}
	slices.Sort(n.nbrList)
	return n
}

// Start implements sim.Protocol: learn adjacent links (§4.3.1 Step 1 —
// each neighbor is itself a reachable destination) and run the first
// solve-and-announce round.
func (n *refNode) Start(env sim.Env) {
	n.env = env
	for _, nb := range env.Neighbors() {
		if env.LinkIsUp(nb.ID) {
			n.nbGraph[nb.ID] = n.freshNeighborGraph(nb.ID)
		}
	}
	n.recompute()
}

// freshNeighborGraph creates the empty P-graph for neighbor b. The root
// is marked as a destination: the adjacency itself is a route to b
// (every node owns its prefix in the paper's one-AS-one-node model).
func (n *refNode) freshNeighborGraph(b routing.NodeID) *pgraph.Graph {
	g := pgraph.New(n.env.Index(), b)
	g.MarkDest(b)
	return g
}

// localGraph returns the local P-graph the model still maintains
// incrementally in finish — the oracle for Node.LocalGraph, which builds
// its graph on demand (shared; do not mutate).
func (n *refNode) localGraph() *pgraph.Graph { return n.localView.Graph() }

// neighbors returns the static ascending neighbor list (shared; do not
// mutate).
func (n *refNode) neighbors() []routing.NodeID { return n.nbrList }

// Handle implements sim.Protocol: import-filter and apply the neighbor's
// delta (§4.3.1 Step 2 / §4.3.2 Step 5), then re-solve and re-announce.
func (n *refNode) Handle(from routing.NodeID, msg sim.Message) {
	u, ok := msg.(Update)
	if !ok {
		return
	}
	g, ok := n.nbGraph[from]
	if !ok {
		return // link went down; the session state is gone
	}
	// Import filtering: drop links pointing at this node (loop
	// elimination — any path through them would revisit us). Apply copies
	// what it keeps, so the filtered delta can live in scratch.
	filtered := pgraph.Delta{
		Adds:    n.addsBuf[:0],
		Removes: u.Delta.Removes,
	}
	for _, li := range u.Delta.Adds {
		if li.Link.To == n.self {
			continue
		}
		filtered.Adds = append(filtered.Adds, li)
	}
	n.addsBuf = filtered.Adds
	// Incremental mode: the destinations whose derivations this update
	// can influence are the marked destinations below every touched link
	// head — in the old graph for context that disappears, in the new
	// graph for context that appears (any link whose Permission List
	// changed is re-announced by the sender, so it shows up here too).
	// The full mode visits every destination anyway.
	var affected map[routing.NodeID]struct{}
	if !n.full {
		affected = make(map[routing.NodeID]struct{})
		n.collectHeads(g, from, filtered, affected)
	}
	g.Apply(filtered)
	if !n.full {
		n.collectHeads(g, from, filtered, affected)
	}
	// A re-announced link is evidence it is back in service: lift its
	// root-cause mask.
	for _, li := range filtered.Adds {
		if _, wasMasked := n.failed[li.Link]; wasMasked {
			delete(n.failed, li.Link)
			n.maskAffect(li.Link, affected)
		}
	}
	// Root cause notification: a physically failed link invalidates
	// every path through it in every P-graph; masking it everywhere is
	// what lets Centaur skip BGP's path exploration (§3.1).
	if !n.cfg.DisableRootCause {
		for _, l := range u.FailedLinks {
			// Always mask (the derivation benefit is local), but propagate
			// each link's note at most once per mask-TTL window — see noted.
			if n.markNoted(l) {
				n.noteFailedLink(l)
			}
			n.mask(l)
			n.maskAffect(l, affected)
		}
	}
	if !n.full {
		n.recomputeDests(affected)
	} else {
		n.recompute()
	}
}

// collectHeads adds to affected the destinations below every link head
// touched by the delta in neighbor from's current graph, and drops their
// cached derivations.
func (n *refNode) collectHeads(g *pgraph.Graph, from routing.NodeID, d pgraph.Delta, affected map[routing.NodeID]struct{}) {
	visit := func(head routing.NodeID) {
		for _, dst := range g.AppendDestsBelow(nil, head) {
			affected[dst] = struct{}{}
			n.invalidate(from, dst)
		}
	}
	for _, li := range d.Adds {
		visit(li.Link.To)
	}
	for _, l := range d.Removes {
		visit(l.To)
	}
}

// maskAffect records, for a link whose failed-mask state changed, the
// destinations whose derivations that can influence — in every neighbor
// graph — and drops their cached derivations. A nil affected set (full
// recompute mode) only performs the invalidation.
func (n *refNode) maskAffect(l routing.Link, affected map[routing.NodeID]struct{}) {
	for b, g := range n.nbGraph {
		for _, dst := range g.AppendDestsBelow(nil, l.To) {
			if affected != nil {
				affected[dst] = struct{}{}
			}
			n.invalidate(b, dst)
		}
	}
}

// invalidate drops the cached derivation for destination d via neighbor b.
func (n *refNode) invalidate(b, d routing.NodeID) {
	if m := n.derived[b]; m != nil {
		delete(m, d)
	}
}

// mask suppresses link l for derivation and schedules the mask's expiry.
func (n *refNode) mask(l routing.Link) {
	if n.failed == nil {
		n.failed = make(map[routing.Link]uint64)
	}
	n.failedGen++
	gen := n.failedGen
	n.failed[l] = gen
	ttl := n.cfg.maskTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	n.env.After(ttl, func() {
		if n.failed[l] != gen {
			return // lifted or re-masked since
		}
		delete(n.failed, l)
		if !n.full {
			affected := make(map[routing.NodeID]struct{})
			n.maskAffect(l, affected)
			n.recomputeDests(affected)
		} else {
			n.maskAffect(l, nil)
			n.recompute()
		}
	})
}

// isFailed reports whether link l is currently masked as failed.
func (n *refNode) isFailed(l routing.Link) bool {
	_, ok := n.failed[l]
	return ok
}

// markNoted opens (or refreshes) l's note-dedup window and reports
// whether the note is new — false means a note for l already went out
// within the last mask TTL and must not be re-propagated.
func (n *refNode) markNoted(l routing.Link) bool {
	if n.noted == nil {
		n.noted = make(map[routing.Link]uint64)
	}
	_, seen := n.noted[l]
	n.notedGen++
	gen := n.notedGen
	n.noted[l] = gen
	ttl := n.cfg.maskTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	n.env.After(ttl, func() {
		if n.noted[l] == gen {
			delete(n.noted, l)
		}
	})
	return !seen
}

// noteFailedLink records l for propagation with this round's updates.
func (n *refNode) noteFailedLink(l routing.Link) {
	for _, f := range n.pendingFailed {
		if f == l {
			return
		}
	}
	n.pendingFailed = append(n.pendingFailed, l)
}

// LinkDown implements sim.Protocol: drop the neighbor's P-graph and our
// announced state toward it, record the root cause, and re-solve.
func (n *refNode) LinkDown(b routing.NodeID) {
	var affected map[routing.NodeID]struct{}
	if !n.full {
		affected = make(map[routing.NodeID]struct{})
		if g := n.nbGraph[b]; g != nil {
			for _, d := range g.Dests() {
				affected[d] = struct{}{}
			}
		}
	}
	delete(n.nbGraph, b)
	delete(n.views, b)
	delete(n.derived, b)
	if !n.cfg.DisableRootCause {
		for _, l := range []routing.Link{{From: n.self, To: b}, {From: b, To: n.self}} {
			// This node is the link's endpoint: its note is authoritative,
			// so it propagates unconditionally and refreshes the window.
			n.markNoted(l)
			n.noteFailedLink(l)
			n.mask(l)
			n.maskAffect(l, affected)
		}
	}
	if !n.full {
		n.recomputeDests(affected)
	} else {
		n.recompute()
	}
}

// LinkUp implements sim.Protocol: restart the session — a fresh empty
// P-graph for the neighbor and a full re-announcement toward it (the
// recompute sees no previously exported view and diffs from empty). The
// adjacency's own root-cause masks are lifted: the link is
// authoritatively back.
func (n *refNode) LinkUp(b routing.NodeID) {
	n.nbGraph[b] = n.freshNeighborGraph(b)
	delete(n.views, b)
	delete(n.derived, b)
	var affected map[routing.NodeID]struct{}
	if !n.full {
		affected = map[routing.NodeID]struct{}{b: {}}
	}
	for _, l := range []routing.Link{{From: n.self, To: b}, {From: b, To: n.self}} {
		if _, wasMasked := n.failed[l]; wasMasked {
			delete(n.failed, l)
			n.maskAffect(l, affected)
		}
	}
	if !n.full {
		n.recomputeDests(affected)
	} else {
		n.recompute()
	}
}

// recompute is the full local solver plus announcement step: re-derive
// the best path for every known destination from the neighbor P-graphs,
// rebuild the local P-graph if anything changed, and send per-neighbor
// deltas of the export-filtered views.
//
// Root-cause notifications ride along with the deltas: a node whose
// selected paths used a failed link withdraws that link in its delta, so
// exactly the nodes that were told about the link hear that it failed —
// nodes whose paths were unaffected never announced it and have nothing
// to propagate.
func (n *refNode) recompute() {
	// The destination universe is everything any neighbor advertises
	// plus everything we currently route to — a destination that just
	// vanished from every graph must still be visited so its stale route
	// is withdrawn.
	set := make(map[routing.NodeID]struct{}, len(n.paths))
	for _, d := range n.knownDests() {
		set[d] = struct{}{}
	}
	for d := range n.paths {
		set[d] = struct{}{}
	}
	dests := n.destBuf[:0]
	for d := range set {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	n.destBuf = dests
	changed := n.solveSome(dests, n.dirtyScratch())
	n.finish(changed, n.dirtyBuf)
}

// recomputeDests is the incremental-mode recompute: only the affected
// destinations are re-solved, and only the export views of neighbors an
// export-relevant route changed for are updated.
func (n *refNode) recomputeDests(affected map[routing.NodeID]struct{}) {
	dests := n.destBuf[:0]
	for d := range affected {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	n.destBuf = dests
	changed := n.solveSome(dests, n.dirtyScratch())
	n.finish(changed, n.dirtyBuf)
}

// dirtyScratch returns the cleared per-round dirty-neighbor scratch map.
func (n *refNode) dirtyScratch() map[routing.NodeID]bool {
	if n.dirtyBuf == nil {
		n.dirtyBuf = make(map[routing.NodeID]bool, len(n.rel))
	} else {
		clear(n.dirtyBuf)
	}
	return n.dirtyBuf
}

// finish applies the round's route changes to the local P-graph and the
// per-neighbor announced views (pgraph.View, the §4.3.2 counter
// machinery), then sends the flushed Δ_B messages. dirty limits view
// updates to neighbors an export-relevant route changed for.
func (n *refNode) finish(changed []routing.NodeID, dirty map[routing.NodeID]bool) {
	for _, d := range changed {
		n.localView.Set(d, n.paths[d])
	}
	n.localView.Flush() // the local graph emits no messages
	failed := n.pendingFailed
	n.pendingFailed = nil
	for _, b := range n.neighbors() {
		if _, up := n.nbGraph[b]; !up {
			continue
		}
		view, hasView := n.views[b]
		switch {
		case !hasView:
			// Fresh session: announce the full exportable path set
			// (§4.3.1 Steps 1 and 4).
			view = pgraph.NewView(n.env.Index(), n.self)
			n.views[b] = view
			for d := range n.paths {
				view.Set(d, n.exportable(d, b))
			}
		case len(changed) == 0 || (dirty != nil && !dirty[b]):
			// No exportable-to-b route changed; the view is current.
			continue
		default:
			for _, d := range changed {
				view.Set(d, n.exportable(d, b))
			}
		}
		delta := view.Flush()
		if delta.Empty() {
			continue
		}
		msg := Update{Delta: delta}
		if len(failed) > 0 {
			msg.FailedLinks = append([]routing.Link(nil), failed...)
		}
		n.env.Send(b, msg)
	}
}

// exportable returns the path announced to neighbor b for destination d:
// the selected path when the export filter admits its class and it does
// not traverse b (sender-side loop avoidance), nil otherwise.
func (n *refNode) exportable(d, b routing.NodeID) routing.Path {
	p, ok := n.paths[d]
	if !ok {
		return nil
	}
	if !n.pol.Export(n.self, n.classes[d], n.rel[b]) {
		return nil
	}
	if p.Contains(b) {
		return nil
	}
	return p
}

// solveSome is the local solver core (§3.2.3): for each destination the
// candidates are the unique policy-compliant paths DerivePath
// reconstructs from each neighbor P-graph, self-prepended, loop-checked,
// and ranked by the policy. Destinations no longer derivable anywhere
// lose their route. It returns the destinations whose route changed.
// When dirty is non-nil, every neighbor whose export view could be
// altered by a changed route is marked in it.
func (n *refNode) solveSome(dests []routing.NodeID, dirty map[routing.NodeID]bool) []routing.NodeID {
	nbs := n.neighbors()
	var changed []routing.NodeID
	for _, d := range dests {
		if d == n.self {
			continue
		}
		// Candidates are ranked on the neighbor-derived paths without
		// materializing the self-prepended copy: every comparison sees
		// both lengths offset by the same +1, and class/via/destination
		// are unaffected — only the winner is prepended.
		var best policy.Candidate
		for _, b := range nbs {
			g, up := n.nbGraph[b]
			if !up {
				continue
			}
			p, ok := n.derive(b, g, d)
			if !ok || !n.pol.Accept(n.self, b, p) {
				continue
			}
			cand := policy.Candidate{
				Path:  p,
				Class: policy.ClassOf(n.rel[b]),
				Via:   b,
			}
			if len(best.Path) == 0 || n.pol.Better(n.self, cand, best) {
				best = cand
			}
		}
		if len(best.Path) > 0 {
			best.Path = best.Path.Prepend(n.self)
		}
		if n.applyBest(d, best, dirty) {
			changed = append(changed, d)
		}
	}
	return changed
}

// applyBest installs best (already self-prepended, empty for "no route")
// as destination d's selected route when it differs from the current
// one, reporting whether the route changed. On a change it emits the
// RouteChangedVia trace event and marks the dirty export views.
func (n *refNode) applyBest(d routing.NodeID, best policy.Candidate, dirty map[routing.NodeID]bool) bool {
	oldPath, had := n.paths[d]
	oldClass := n.classes[d]
	oldVia := n.vias[d] // routing.None when absent
	newVia := routing.None
	switch {
	case len(best.Path) == 0 && !had:
		return false
	case len(best.Path) == 0:
		delete(n.paths, d)
		delete(n.classes, d)
		delete(n.vias, d)
	case had && oldPath.Equal(best.Path) && n.vias[d] == best.Via:
		return false
	default:
		n.paths[d] = best.Path
		n.classes[d] = best.Class
		n.vias[d] = best.Via
		newVia = best.Via
	}
	n.env.RouteChangedVia(d, oldVia, newVia)
	if dirty != nil {
		n.markDirty(dirty, d, oldClass, best)
	}
	return true
}

// markDirty marks every neighbor whose export view can be altered by
// destination d's route changing from oldClass to the new best.
func (n *refNode) markDirty(dirty map[routing.NodeID]bool, d routing.NodeID, oldClass policy.RouteClass, best policy.Candidate) {
	_ = d
	for _, b := range n.neighbors() {
		if dirty[b] {
			continue
		}
		rel := n.rel[b]
		if (oldClass != 0 && n.pol.Export(n.self, oldClass, rel)) ||
			(best.Class != 0 && n.pol.Export(n.self, best.Class, rel)) {
			dirty[b] = true
		}
	}
}

// derive returns the (possibly memoized) DerivePath result for
// destination d from neighbor b's graph. The cache is only active in
// incremental mode, where the affected-set analysis performs the
// invalidation; the full mode derives afresh every time. A destination
// the graph does not mark has no path in either mode.
func (n *refNode) derive(b routing.NodeID, g *pgraph.Graph, d routing.NodeID) (routing.Path, bool) {
	if !g.IsDest(d) {
		return nil, false
	}
	if n.full {
		n.derivations++
		return g.DerivePathWith(d, n.isFailed)
	}
	m := n.derived[b]
	if m == nil {
		m = make(map[routing.NodeID]refDerivedEntry)
		if n.derived == nil {
			n.derived = make(map[routing.NodeID]map[routing.NodeID]refDerivedEntry)
		}
		n.derived[b] = m
	}
	if e, ok := m[d]; ok {
		return e.path, e.ok
	}
	n.derivations++
	p, ok := g.DerivePathWith(d, n.isFailed)
	m[d] = refDerivedEntry{path: p, ok: ok}
	return p, ok
}

// knownDests returns every destination any neighbor P-graph advertises,
// plus self, ascending.
func (n *refNode) knownDests() []routing.NodeID {
	set := map[routing.NodeID]struct{}{n.self: {}}
	for _, g := range n.nbGraph {
		for _, d := range g.Dests() {
			set[d] = struct{}{}
		}
	}
	out := make([]routing.NodeID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}
