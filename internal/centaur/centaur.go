// Package centaur implements the paper's contribution: a hybrid
// link-state / path-vector protocol for policy-based routing.
//
// Each node follows the protocol flow of §4.3:
//
//   - It keeps one P-graph per neighbor (G_{B→A}), assembled from that
//     neighbor's downstream-link announcements.
//   - The local solver derives, for every known destination, the unique
//     policy-compliant path offered by each neighbor's P-graph
//     (DerivePath, Table 1), prepends itself, performs loop detection
//     (Observation 1), and ranks the candidates with the Gao–Rexford
//     preference (§3.2.3).
//   - It announces to each neighbor only the links of the paths it
//     actually uses and may export there, with Permission Lists attached
//     where the exported view has multi-homed nodes (§3.2.1, §4.1).
//     Updates are incremental per-link deltas (Δ_B, §4.3.2).
//   - Withdrawals caused by a physical link failure carry the root
//     cause, so receivers mask the failed link across every neighbor
//     P-graph at once and never explore stale alternative paths that
//     contain it ("root cause information", §3.1, [6,15]). The mask
//     suppresses derivation without mutating the announced graphs (see
//     the failed field for why that distinction is load-bearing);
//     withdrawals caused by policy/path changes affect only the
//     announcing neighbor's P-graph.
package centaur

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
	"centaur/internal/wire"
)

// Update is a Centaur routing update: an incremental per-link delta of
// the sender's exported view, plus the set of links known to have
// physically failed (root cause notification).
type Update struct {
	Delta pgraph.Delta
	// FailedLinks are physical failures being propagated; receivers
	// mask them across every P-graph, not just the sender's.
	FailedLinks []routing.Link
}

var _ sim.Message = Update{}

// Kind implements sim.Message.
func (Update) Kind() string { return "centaur.update" }

// Units implements sim.Message: one unit per link announcement or
// withdrawal, the link-level analogue of BGP's per-destination updates.
func (u Update) Units() int { return u.Delta.Size() }

// WireBytes implements sim.ByteSizer with the internal/wire encoding.
func (u Update) WireBytes() int {
	return wire.CentaurUpdateSize(wire.CentaurUpdate{
		Adds:        u.Delta.Adds,
		Removes:     u.Delta.Removes,
		FailedLinks: u.FailedLinks,
	})
}

// String renders the update compactly for traces.
func (u Update) String() string {
	return fmt.Sprintf("centaur.update(+%d -%d failed=%d)",
		len(u.Delta.Adds), len(u.Delta.Removes), len(u.FailedLinks))
}

// Config parameterizes a Centaur node.
type Config struct {
	// Policy supplies filtering and ranking; nil means policy.GaoRexford{}.
	Policy policy.Policy
	// DisableRootCause turns off the failed-link masking, degrading
	// withdrawals to plain per-neighbor removals. Used by the ablation
	// benchmarks to isolate the root-cause contribution to convergence.
	DisableRootCause bool
	// maskTTL bounds how long a root-cause mask suppresses a failed link
	// before the node re-trusts standing announcements (see the failed
	// field); zero means one second. Only tests shorten it.
	maskTTL time.Duration
	// Deprecated: ignored; the node always re-solves only the affected
	// destinations. Kept so the benchmark module compiles; delete it when
	// benchmark/ is next edited.
	Incremental bool
	// BloomPL announces Permission Lists in the §4.1 Bloom-compressed
	// form: outgoing deltas carry a per-next-hop-group filter (or the
	// explicit list when that is smaller on the wire), and WireBytes
	// charges only the compressed form. Receivers answer membership from
	// the filters and verify positive hits against the explicit pairs,
	// so a false positive is counted (pl.fp_hits, Stats.PLFalsePositives)
	// and denied — routing decisions are identical to the explicit mode.
	BloomPL bool
	// PLFPRate is the per-group Bloom filter false-positive target used
	// when BloomPL is on; zero means DefaultPLFPRate.
	PLFPRate float64
	// Adversary, when non-nil, makes the model's attacker nodes
	// misbehave (leaked P-graph injections, hijack link fabrications,
	// data-plane drops — see internal/adversary). All hooks are
	// nil-checked: a nil model leaves every honest code path untouched
	// and runs byte-identical to builds without the suite.
	Adversary *adversary.Model
}

// DefaultPLFPRate is the Bloom filter sizing target used when
// Config.PLFPRate is unset.
const DefaultPLFPRate = 0.01

// Node is one Centaur router. Create with New; it implements
// sim.Protocol.
//
// Per-destination state (the route table, the round's affected-set
// stamps) lives in tables sized once by the network's topology.Index and
// keyed by a destination's position there; messages and traces still
// speak NodeID. Per-neighbor state lives in nbrs, parallel to nbrList,
// and is sized by what the neighbor announces: its P-graph and the
// export view toward it resolve nodes through the same index, and its
// derive cache is keyed by the slots of its P-graph.
type Node struct {
	cfg  Config
	pol  policy.Policy
	env  sim.Env
	self routing.NodeID
	idx  *topology.Index
	// nbrList is the static ascending neighbor list (the topology's
	// adjacencies do not change; only link state does); nbrs[i] is the
	// state kept for neighbor nbrList[i].
	nbrList []routing.NodeID
	nbrs    []neighbor

	// routes is the selected path set (Loc-RIB) with each route's class
	// and learned-from neighbor, by destination position.
	routes []route
	// pendingFailed accumulates root-cause links to attach to the next
	// outgoing updates of the current recompute round.
	pendingFailed []routing.Link
	// failed is the root-cause mask: links known to be physically down.
	// Masked links are treated as absent during path derivation but the
	// neighbor P-graphs are NOT mutated — a third-party notice must not
	// break the announcement contract between this node and neighbors
	// that legitimately still announce the link (they may never learn of
	// a failure that heals quickly, and then would never re-announce).
	// A mask lifts when the link is re-announced by anyone, when the
	// local adjacency comes back, or after the mask TTL (after the
	// convergence episode the withdrawals have done their work; any
	// announcement still standing is to be trusted again).
	failed map[routing.Link]uint64
	// failedGen sequences mask entries so an expiry timer never clears a
	// newer mask for the same link.
	failedGen uint64
	// noted tracks which links this node already attached a root-cause
	// note for within the current mask-TTL window. Third-party notes
	// (Handle) are propagated at most once per window: on a topology with
	// cycles and slow links (e.g. transport retransmission delays under
	// message loss) an undeduplicated note can outlive every mask and
	// circulate forever, re-masking healed links in a self-sustaining
	// withdraw/re-add oscillation. A link's own endpoints (LinkDown) are
	// authoritative and always propagate, refreshing the window.
	noted    map[routing.Link]uint64
	notedGen uint64

	// adv is the misbehavior model (nil for honest runs).
	adv *adversary.Model

	// Per-round scratch, reused across events (each round finishes
	// before the next event is dispatched). affected is the round's
	// destination set, as positions; a destination is in it when its
	// stamp equals epoch.
	affected   []int
	stamp      []uint32
	epoch      uint32
	addsBuf    []pgraph.LinkInfo
	headBuf    []routing.NodeID
	belowBuf   []routing.NodeID
	changedBuf []int
}

// neighbor is the state kept for one adjacency.
type neighbor struct {
	rel topology.Relationship
	// graph is G_{b→self}, the P-graph announced by the neighbor; nil
	// exactly while the link is down.
	graph *pgraph.Graph
	// spare is the ended session's graph, kept while the link is down so
	// the next session reuses its storage (see openSession).
	spare *pgraph.Graph
	// view maintains the announced (export-filtered) P-graph toward the
	// neighbor; its Flush yields the Δ_B update messages. nil until the
	// first session's first announcement; it outlives the session, so a
	// restart brings it up to date instead of rebuilding it (see finish).
	view *pgraph.View
	// derived memoizes the DerivePath result from graph per destination,
	// keyed by the destination's slot in graph and grown with it (see
	// derive). Entries are invalidated by the affected-set analysis.
	derived pgraph.SlotTable[routing.Path]
	// dirty marks, within a round, that a route exportable to the
	// neighbor changed, so its view needs updating.
	dirty bool
	// fresh marks a session whose full view has not been announced yet,
	// from Start or LinkUp to the end of that event's round.
	fresh bool
	// injected records the adversarial link announcements already sent
	// to the neighbor (ascending by link), so injection re-sends only on
	// change and quiesces.
	injected []pgraph.LinkInfo
}

// route is one Loc-RIB entry; a nil path means no route.
type route struct {
	path  routing.Path
	class policy.RouteClass
	via   routing.NodeID
}

var _ sim.Protocol = (*Node)(nil)

// New returns the sim.Builder for Centaur nodes with the given
// configuration.
func New(cfg Config) sim.Builder {
	return func(env sim.Env) sim.Protocol {
		pol := cfg.Policy
		if pol == nil {
			pol = policy.GaoRexford{}
		}
		idx := env.Index()
		dests := idx.Len()
		n := &Node{
			cfg:    cfg,
			pol:    pol,
			env:    env,
			self:   env.Self(),
			idx:    idx,
			adv:    cfg.Adversary,
			routes: make([]route, dests),
			stamp:  make([]uint32, dests),
		}
		nbs := slices.Clone(env.Neighbors())
		slices.SortFunc(nbs, func(a, b topology.Neighbor) int { return cmp.Compare(a.ID, b.ID) })
		for _, nb := range nbs {
			n.nbrList = append(n.nbrList, nb.ID)
			n.nbrs = append(n.nbrs, neighbor{rel: nb.Rel})
		}
		return n
	}
}

// neighbor returns the state kept for adjacency b, nil when b is not a
// neighbor.
func (n *Node) neighbor(b routing.NodeID) *neighbor {
	if i, ok := slices.BinarySearch(n.nbrList, b); ok {
		return &n.nbrs[i]
	}
	return nil
}

// Start implements sim.Protocol: learn adjacent links (§4.3.1 Step 1 —
// each neighbor is itself a reachable destination) and run the first
// solve-and-announce round. A node starts once, fresh (a restart builds a
// new instance), so the round is LinkUp's for every up neighbor at once.
func (n *Node) Start(env sim.Env) {
	n.env = env
	n.beginRound()
	for i, b := range n.nbrList {
		if env.LinkIsUp(b) {
			n.openSession(&n.nbrs[i], b)
			n.affect(b)
		}
	}
	n.solveAffected()
}

// openSession gives neighbor b an empty P-graph — the ended session's
// storage when there is one — and schedules the full announcement of
// the view toward it. The root is marked as a destination: the adjacency
// itself is a route to b (every node owns its prefix in the paper's
// one-AS-one-node model).
func (n *Node) openSession(nb *neighbor, b routing.NodeID) {
	g := nb.spare
	if g == nil {
		g = pgraph.New(n.idx, b)
	} else {
		g.Reset(b)
	}
	g.MarkDest(b)
	n.installFPObserver(g)
	nb.graph, nb.spare, nb.fresh = g, nil, true
}

// plFPNoter is the optional environment interface for Permission List
// Bloom false-positive accounting; the simulator's own env implements
// it, and sim.BaseEnv reaches that env through any adapter envs.
type plFPNoter interface{ NotePLFalsePositive(dest routing.NodeID) }

// installFPObserver wires the graph's Bloom false-positive hits into
// the simulator's stats and trace. Only compressed Permission Lists
// (BloomPL mode) can produce hits. The observer closes over the node,
// so a forked protocol instance re-installs its own on its cloned
// graphs (see snapshot.go).
func (n *Node) installFPObserver(g *pgraph.Graph) {
	if !n.cfg.BloomPL {
		return
	}
	g.SetFPObserver(func(_ routing.Link, dest, _ routing.NodeID) {
		if noter, ok := sim.BaseEnv(n.env).(plFPNoter); ok {
			noter.NotePLFalsePositive(dest)
		}
	})
}

// plFPRate resolves the configured filter sizing target.
func (n *Node) plFPRate() float64 {
	if n.cfg.PLFPRate > 0 {
		return n.cfg.PLFPRate
	}
	return DefaultPLFPRate
}

// compressDelta attaches the §4.1 compressed form to every Permission
// List in an outgoing delta. The explicit pairs stay in the message —
// the simulator passes structs, not bytes, and the receiver uses them
// as the oracle that catches false positives — but the wire layer
// serializes (and WireBytes charges) only the compressed form.
func (n *Node) compressDelta(d pgraph.Delta) {
	for i := range d.Adds {
		if len(d.Adds[i].Perm) > 0 {
			d.Adds[i].Filters = wire.CompressPerm(d.Adds[i].Perm, n.plFPRate())
		}
	}
}

// Handle implements sim.Protocol: import-filter and apply the neighbor's
// delta (§4.3.1 Step 2 / §4.3.2 Step 5), then re-solve and re-announce.
func (n *Node) Handle(from routing.NodeID, msg sim.Message) {
	u, ok := msg.(Update)
	if !ok {
		return
	}
	nb := n.neighbor(from)
	if nb == nil || nb.graph == nil {
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
	// The destinations whose derivations this update can influence are
	// the marked destinations below every touched link head — in the old
	// graph for context that disappears, in the new graph for context
	// that appears (any link whose Permission List changed is re-announced
	// by the sender, so it shows up here too).
	n.beginRound()
	n.collectHeads(nb, filtered)
	nb.graph.Apply(filtered)
	n.collectHeads(nb, filtered)
	// A re-announced link is evidence it is back in service: lift its
	// root-cause mask.
	for _, li := range filtered.Adds {
		if _, wasMasked := n.failed[li.Link]; wasMasked {
			delete(n.failed, li.Link)
			n.maskAffect(li.Link)
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
			n.maskAffect(l)
		}
	}
	n.solveAffected()
}

// beginRound empties the affected set for a new event.
func (n *Node) beginRound() {
	if n.epoch++; n.epoch == 0 { // stamp wrap-around: forget every old round
		clear(n.stamp)
		n.epoch = 1
	}
	n.affected = n.affected[:0]
}

// affect adds destination d to the round's affected set and returns its
// position, or -1 when d is no node of the network: such a destination
// has no slot, so it is never routed.
func (n *Node) affect(d routing.NodeID) int {
	p := n.idx.Pos(d)
	if p >= 0 && n.stamp[p] != n.epoch {
		n.stamp[p] = n.epoch
		n.affected = append(n.affected, p)
	}
	return p
}

// affectBelow adds to the affected set the destinations below any of
// heads in the neighbor's current graph — one traversal for all heads —
// and drops their cached derivations.
func (n *Node) affectBelow(nb *neighbor, heads ...routing.NodeID) {
	n.belowBuf = nb.graph.AppendDestsBelow(n.belowBuf[:0], heads...)
	for _, dst := range n.belowBuf {
		n.affect(dst)
		if s, ok := nb.graph.DestSlot(dst); ok && s < nb.derived.Len() {
			*nb.derived.At(s) = nil
		}
	}
}

// collectHeads affects the destinations below every link head touched
// by the delta in the neighbor's current graph.
func (n *Node) collectHeads(nb *neighbor, d pgraph.Delta) {
	heads := n.headBuf[:0]
	for _, li := range d.Adds {
		heads = append(heads, li.Link.To)
	}
	for _, l := range d.Removes {
		heads = append(heads, l.To)
	}
	n.headBuf = heads
	n.affectBelow(nb, heads...)
}

// maskAffect affects, for a link whose failed-mask state changed, the
// destinations whose derivations that can influence. Derivation consults
// the mask only for the in-links a graph actually holds, so only the
// neighbor graphs containing l are concerned; everywhere else every
// cached derivation, and hence every installed route, stands.
func (n *Node) maskAffect(l routing.Link) {
	for i := range n.nbrs {
		if nb := &n.nbrs[i]; nb.graph != nil && nb.graph.HasLink(l) {
			n.affectBelow(nb, l.To)
		}
	}
}

// maskTTL resolves the configured mask lifetime.
func (n *Node) maskTTL() time.Duration {
	if n.cfg.maskTTL > 0 {
		return n.cfg.maskTTL
	}
	return time.Second
}

// mask suppresses link l for derivation and schedules the mask's expiry.
func (n *Node) mask(l routing.Link) {
	if n.failed == nil {
		n.failed = make(map[routing.Link]uint64)
	}
	n.failedGen++
	gen := n.failedGen
	n.failed[l] = gen
	n.env.After(n.maskTTL(), func() {
		if n.failed[l] != gen {
			return // lifted or re-masked since
		}
		delete(n.failed, l)
		n.beginRound()
		n.maskAffect(l)
		if len(n.affected) == 0 {
			// No graph holds l any more (it has been withdrawn everywhere),
			// so no derivation changes and there is nothing to re-announce:
			// every up neighbor already has a current view.
			return
		}
		n.solveAffected()
	})
}

// isFailed reports whether link l is currently masked as failed.
func (n *Node) isFailed(l routing.Link) bool {
	_, ok := n.failed[l]
	return ok
}

// markNoted opens (or refreshes) l's note-dedup window and reports
// whether the note is new — false means a note for l already went out
// within the last mask TTL and must not be re-propagated.
func (n *Node) markNoted(l routing.Link) bool {
	if n.noted == nil {
		n.noted = make(map[routing.Link]uint64)
	}
	_, seen := n.noted[l]
	n.notedGen++
	gen := n.notedGen
	n.noted[l] = gen
	n.env.After(n.maskTTL(), func() {
		if n.noted[l] == gen {
			delete(n.noted, l)
		}
	})
	return !seen
}

// noteFailedLink records l for propagation with this round's updates.
func (n *Node) noteFailedLink(l routing.Link) {
	if !slices.Contains(n.pendingFailed, l) {
		n.pendingFailed = append(n.pendingFailed, l)
	}
}

// endSession drops everything learned from a neighbor. The graph's
// storage is kept as the next session's spare, and the announced view is
// kept whole: the next session's first round brings it up to date and
// announces all of it (see finish).
func (nb *neighbor) endSession() {
	nb.derived.Clear() // keeps the table's storage for the next session
	if nb.graph != nil {
		nb.spare = nb.graph
	}
	nb.graph, nb.injected = nil, nil
}

// LinkDown implements sim.Protocol: drop the neighbor's P-graph and our
// announced state toward it, record the root cause, and re-solve.
func (n *Node) LinkDown(b routing.NodeID) {
	nb := n.neighbor(b)
	if nb == nil {
		return
	}
	n.beginRound()
	if nb.graph != nil {
		for _, d := range nb.graph.Dests() {
			n.affect(d)
		}
	}
	nb.endSession()
	if !n.cfg.DisableRootCause {
		for _, l := range []routing.Link{{From: n.self, To: b}, {From: b, To: n.self}} {
			// This node is the link's endpoint: its note is authoritative,
			// so it propagates unconditionally and refreshes the window.
			n.markNoted(l)
			n.noteFailedLink(l)
			n.mask(l)
			n.maskAffect(l)
		}
	}
	n.solveAffected()
}

// LinkUp implements sim.Protocol: restart the session — an empty
// P-graph for the neighbor and a full re-announcement toward it. The
// adjacency's own root-cause masks are lifted: the link is
// authoritatively back.
func (n *Node) LinkUp(b routing.NodeID) {
	nb := n.neighbor(b)
	if nb == nil {
		return
	}
	nb.endSession()
	n.openSession(nb, b)
	n.beginRound()
	n.affect(b)
	for _, l := range []routing.Link{{From: n.self, To: b}, {From: b, To: n.self}} {
		if _, wasMasked := n.failed[l]; wasMasked {
			delete(n.failed, l)
			n.maskAffect(l)
		}
	}
	n.solveAffected()
}

// solveAffected is the local solver plus announcement step: it re-solves
// the round's affected destinations in ascending order and sends
// per-neighbor deltas of the export-filtered views; only the views of
// neighbors an export-relevant route changed for are updated.
//
// Root-cause notifications ride along with the deltas: a node whose
// selected paths used a failed link withdraws that link in its delta, so
// exactly the nodes that were told about the link hear that it failed —
// nodes whose paths were unaffected never announced it and have nothing
// to propagate.
func (n *Node) solveAffected() {
	tele.recomputes.Inc()
	slices.Sort(n.affected)
	for i := range n.nbrs {
		n.nbrs[i].dirty = false
	}
	n.finish(n.solveSome(n.affected))
}

// finish applies the round's route changes to the announced views of the
// neighbors marked dirty (pgraph.View, the §4.3.2 counter machinery) and
// sends the flushed Δ_B messages; a session's first round announces the
// whole view instead (announceView). The round's root-cause links are
// copied once and the copy rides every message of the fan-out: a message
// is immutable once handed to Send, so receivers may share it.
func (n *Node) finish(changed []int) {
	failed := n.pendingFailed
	n.pendingFailed = failed[:0] // failed is read before the next round appends
	var sent []routing.Link
	for i, b := range n.nbrList {
		nb := &n.nbrs[i]
		if nb.graph == nil {
			continue
		}
		// Adversarial injections (nil for honest nodes) ride the same
		// delta so the receiver processes them like any announcement.
		inject := n.advInjects(b, nb)
		var delta pgraph.Delta
		switch {
		case nb.fresh:
			delta = n.announceView(b, nb)
		case (len(changed) == 0 || !nb.dirty) && len(inject) == 0:
			// No exportable-to-b route changed; the view is current.
			continue
		default:
			for _, p := range changed {
				nb.view.Set(n.idx.ID(p), n.exportable(p, b, nb))
			}
			delta = nb.view.Flush()
		}
		if len(inject) > 0 {
			delta.Adds = append(delta.Adds, inject...)
			slices.SortFunc(delta.Adds, func(x, y pgraph.LinkInfo) int {
				return advLinkCompare(x.Link, y.Link)
			})
		}
		if delta.Empty() {
			continue
		}
		if n.cfg.BloomPL {
			n.compressDelta(delta)
		}
		msg := Update{Delta: delta}
		if len(failed) > 0 {
			if sent == nil {
				sent = slices.Clone(failed)
			}
			msg.FailedLinks = sent
		}
		n.env.Send(b, msg)
	}
}

// announceView brings the view toward neighbor b up to the exportable
// path set and returns its full announcement (§4.3.1 Steps 1 and 4). A
// view kept from an ended session is updated destination by destination,
// an unchanged path costing one lookup, and the round's Flush — a Δ
// against the ended session, which the neighbor no longer holds — is
// dropped in favour of the whole graph: the maintained layout depends
// only on the path set, so that is exactly what a fresh view's Flush
// would send. An empty view's Flush already is the whole announcement.
func (n *Node) announceView(b routing.NodeID, nb *neighbor) pgraph.Delta {
	nb.fresh = false
	if nb.view == nil {
		nb.view = pgraph.NewView(n.idx, n.self)
	}
	empty := nb.view.Graph().NumLinks() == 0
	for p := range n.routes {
		if path := n.exportable(p, b, nb); path != nil || !empty {
			nb.view.Set(n.idx.ID(p), path)
		}
	}
	delta := nb.view.Flush()
	if empty {
		return delta
	}
	return pgraph.Delta{Adds: nb.view.Graph().LinkInfos()}
}

// exportable returns the path announced to neighbor b for the
// destination at position p: the selected path when the export filter
// admits its class and it does not traverse b (sender-side loop
// avoidance), nil otherwise.
func (n *Node) exportable(p int, b routing.NodeID, nb *neighbor) routing.Path {
	r := n.routes[p]
	if r.path == nil || !n.pol.Export(n.self, r.class, nb.rel) || r.path.Contains(b) {
		return nil
	}
	return r.path
}

// solveSome is the local solver core (§3.2.3): for each destination the
// candidates are the unique policy-compliant paths DerivePath
// reconstructs from each neighbor P-graph, self-prepended, loop-checked,
// and ranked by the policy. Destinations no longer derivable anywhere
// lose their route. dests and the result are positions. It returns the
// destinations whose route changed (scratch, valid until the next
// round), having marked dirty every neighbor whose export view a changed
// route could alter.
func (n *Node) solveSome(dests []int) []int {
	// With nothing masked the derivations take their unfiltered fast
	// path; the result is the same as filtering with an empty mask.
	var skip func(routing.Link) bool
	if len(n.failed) > 0 {
		skip = n.isFailed
	}
	changed := n.changedBuf[:0]
	for _, p := range dests {
		if n.idx.ID(p) != n.self && n.applyBest(p, n.rank(p, skip)) {
			changed = append(changed, p)
		}
	}
	n.changedBuf = changed
	return changed
}

// rank returns the best candidate for the destination at position p as
// the via neighbor derived it — not yet self-prepended — or the zero
// Candidate when no neighbor offers an acceptable path. Ranking the
// neighbor-derived paths is sound: every comparison sees both lengths
// offset by the same +1, and class/via/destination are unaffected.
func (n *Node) rank(p int, skip func(routing.Link) bool) policy.Candidate {
	var best policy.Candidate
	for i, b := range n.nbrList {
		nb := &n.nbrs[i]
		if nb.graph == nil {
			continue
		}
		path, ok := n.derive(nb, p, skip)
		if !ok || !n.pol.Accept(n.self, b, path) {
			continue
		}
		cand := policy.Candidate{Path: path, Class: policy.ClassOf(nb.rel), Via: b}
		if len(best.Path) == 0 || n.pol.Better(n.self, cand, best) {
			best = cand
		}
	}
	return best
}

// applyBest installs best (rank's winner, empty for "no route") as the
// selected route of the destination at position p when it differs from
// the current one, reporting whether the route changed; only then is the
// self-prepended path materialized. On a change it emits the
// RouteChangedVia trace event and marks the dirty export views.
func (n *Node) applyBest(p int, best policy.Candidate) bool {
	r := &n.routes[p]
	old := *r
	switch {
	case len(best.Path) == 0 && old.path == nil:
		return false
	case len(best.Path) == 0:
		*r = route{}
	case old.path != nil && old.path[1:].Equal(best.Path) && old.via == best.Via:
		return false
	default:
		*r = route{path: best.Path.Prepend(n.self), class: best.Class, via: best.Via}
	}
	n.env.RouteChangedVia(n.idx.ID(p), old.via, r.via)
	// Every neighbor whose export view the change can alter is dirty.
	for i := range n.nbrs {
		nb := &n.nbrs[i]
		if !nb.dirty && ((old.class != 0 && n.pol.Export(n.self, old.class, nb.rel)) ||
			(best.Class != 0 && n.pol.Export(n.self, best.Class, nb.rel))) {
			nb.dirty = true
		}
	}
	return true
}

// derive returns the (possibly memoized) DerivePath result for the
// destination at position p from the neighbor's graph; the affected-set
// analysis performs the cache invalidation. A destination the graph
// does not mark is no offer — the neighbor's view marks exactly the
// destinations it announces a path for, and a transit head's backtrace
// is no route the neighbor selected — so it has no path, derived or
// cached.
func (n *Node) derive(nb *neighbor, p int, skip func(routing.Link) bool) (routing.Path, bool) {
	dest := n.idx.ID(p)
	s, ok := nb.graph.DestSlot(dest)
	if !ok {
		return nil, false
	}
	if path, ok, hit := nb.cached(s, dest); hit {
		tele.cacheHits.Inc()
		return path, ok
	}
	tele.derivations.Inc()
	path, ok := nb.graph.DerivePathWith(dest, skip)
	nb.derived.Grow(nb.graph)
	if ok {
		*nb.derived.At(s) = path
	} else {
		*nb.derived.At(s) = n.idx.IDs()[p : p+1 : p+1]
	}
	return path, ok
}

// cached returns the derive cache's answer for dest, the marked
// destination at slot s of the neighbor's graph; hit is false when none
// is cached. The cache is keyed by slot, and a slot passes to another
// node when its node leaves the graph, so every entry ends with the
// destination it was derived for and a hit must match: a derived path
// ends there, and a failure is cached as the one-element slice of the
// index's ID list holding the destination (shared and immutable, so
// free). Only the root's own path is one node long.
func (nb *neighbor) cached(s int, dest routing.NodeID) (path routing.Path, ok, hit bool) {
	if s >= nb.derived.Len() {
		return nil, false, false
	}
	if path = *nb.derived.At(s); len(path) == 0 || path[len(path)-1] != dest {
		return nil, false, false
	}
	if len(path) == 1 && dest != nb.graph.Root() {
		return nil, false, true
	}
	return path, true, true
}

// BestPath returns the node's selected path to dest (nil when none).
func (n *Node) BestPath(dest routing.NodeID) routing.Path {
	if dest == n.self {
		return routing.Path{n.self}
	}
	return n.route(dest).path.Clone()
}

// route returns dest's Loc-RIB entry (the zero route when none).
func (n *Node) route(dest routing.NodeID) route {
	if p := n.idx.Pos(dest); p >= 0 {
		return n.routes[p]
	}
	return route{}
}

// NextHopTo returns the first hop of the selected route to dest without
// cloning the path (routing.None when no route is selected) — the
// allocation-free read the data-plane forwarding walker takes per hop.
// Hijack and intercept attackers drop their victim's traffic here: the
// control plane keeps whatever it announced, the data plane sinks the
// packets (forward-then-drop).
func (n *Node) NextHopTo(dest routing.NodeID) routing.NodeID {
	if n.adv.Drops(n.self, dest) {
		return routing.None
	}
	if p := n.route(dest).path; len(p) >= 2 {
		return p[1]
	}
	return routing.None
}

// Routes returns a copy of the selected path set keyed by destination.
func (n *Node) Routes() map[routing.NodeID]routing.Path {
	out := make(map[routing.NodeID]routing.Path, len(n.routes))
	for p, r := range n.routes {
		if r.path != nil {
			out[n.idx.ID(p)] = r.path.Clone()
		}
	}
	return out
}

// LocalGraph builds the node's local P-graph (§3.2.2, Table 2) from the
// route table: fresh and caller-owned, O(routes) per call. None is kept.
func (n *Node) LocalGraph() *pgraph.Graph {
	paths := make([]routing.Path, 0, len(n.routes))
	for _, r := range n.routes {
		if r.path != nil {
			paths = append(paths, r.path)
		}
	}
	g, err := pgraph.BuildInto(nil, n.idx, n.self, paths)
	if err != nil {
		panic(fmt.Sprintf("centaur: node %v: selected paths form no P-graph: %v", n.self, err))
	}
	return g
}

// NeighborGraph returns G_{b→self}, the P-graph assembled from neighbor
// b's announcements, or nil when the adjacency is down (shared, do not
// mutate).
func (n *Node) NeighborGraph(b routing.NodeID) *pgraph.Graph {
	if nb := n.neighbor(b); nb != nil {
		return nb.graph
	}
	return nil
}

// ExportedView returns the announced view toward neighbor b as link
// announcements, nil when no session exists — also while the adjacency
// is down, although the node keeps the ended session's view for the
// next one.
func (n *Node) ExportedView(b routing.NodeID) []pgraph.LinkInfo {
	if nb := n.neighbor(b); nb != nil && nb.graph != nil && nb.view != nil {
		return nb.view.Graph().LinkInfos()
	}
	return nil
}
