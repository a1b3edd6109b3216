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
// and is sized by what the neighbor announces: its P-graph resolves
// nodes through the same index, and its derive cache is keyed by the
// slots of its P-graph. The announced views live in classes, one per
// export class (see exportClass).
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
	// classes are the export classes, in the order their first member
	// appears in nbrList.
	classes []exportClass

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
	// stamp, fullRank bit aside, equals epoch.
	affected   []int
	stamp      []uint32
	epoch      uint32
	headBuf    []routing.NodeID
	scopeBuf   []routing.NodeID
	belowBuf   []routing.NodeID
	changedBuf []int
}

// fullRank flags, in a destination's stamp, that the round may have
// changed an offer other than the event neighbor's, so the destination
// is ranked over every neighbor (see decide). The epoch counts below it.
const fullRank = 1 << 31

// exportClass groups the neighbors whose relationship Policy.Export
// passes the same route classes to. Their announced views hold the same
// paths but for the sender-side loop filter, so one pgraph.ClassView
// keeps them all.
type exportClass struct {
	// exports has bit cl set when the members are exported routes of
	// class cl.
	exports uint8
	// members are the class's neighbors, ascending.
	members []routing.NodeID
	// view maintains the members' announced (export-filtered) P-graphs;
	// its Flush yields their Δ_B update messages. nil until a member's
	// first session's first announcement; it is kept up to date whether
	// or not any member's session is up, so a restart announces it
	// whole (see announceView).
	view *pgraph.ClassView
	// dirty marks, within a round, that a route exportable to the class
	// changed, so its view needs updating.
	dirty bool
}

// exportsClass reports whether the class's members are exported routes
// of class cl.
func (ec *exportClass) exportsClass(cl policy.RouteClass) bool {
	return cl != 0 && ec.exports&(1<<cl) != 0
}

// neighbor is the state kept for one adjacency.
type neighbor struct {
	rel topology.Relationship
	// class is the neighbor's export class (an index into Node.classes)
	// and member its position among the class's members.
	class, member int
	// graph is G_{b→self}, the P-graph announced by the neighbor; nil
	// exactly while the link is down.
	graph *pgraph.Graph
	// spare is the ended session's graph, kept while the link is down so
	// the next session reuses its storage (see openSession).
	spare *pgraph.Graph
	// derived memoizes the DerivePath result from graph per destination,
	// keyed by the destination's slot in graph and grown with it (see
	// derive). Entries are invalidated by the affected-set analysis.
	derived pgraph.SlotTable[routing.Path]
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
			n.nbrs = append(n.nbrs, n.classify(nb))
		}
		return n
	}
}

// classify returns the state for a new neighbor, placed in its export
// class: the one whose members Policy.Export passes the same route
// classes to, a new one when no class has that signature yet. Export is a
// pure function of (self, class, rel), so the signature is computed once.
func (n *Node) classify(nb topology.Neighbor) neighbor {
	var exports uint8
	for cl := policy.ClassOwn; cl <= policy.ClassProvider; cl++ {
		if n.pol.Export(n.self, cl, nb.Rel) {
			exports |= 1 << cl
		}
	}
	c := slices.IndexFunc(n.classes, func(ec exportClass) bool { return ec.exports == exports })
	if c < 0 {
		c = len(n.classes)
		n.classes = append(n.classes, exportClass{exports: exports})
	}
	ec := &n.classes[c]
	ec.members = append(ec.members, nb.ID)
	return neighbor{rel: nb.Rel, class: c, member: len(ec.members) - 1}
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
			n.affect(b, true)
		}
	}
	n.solveAffected(routing.None)
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
	// The destinations whose derivations this update can influence. A
	// re-announcement the graph can scope itself (AppendReannounced)
	// touches only the destinations it names. Every other add and every
	// withdrawal touches the marked destinations below its link head: in
	// the new graph for context that appears, and in the old graph for
	// context that disappears, which only a withdrawal or a cleared
	// destination mark can make disappear (adds never remove a link).
	// Links pointing at this node are dropped by the import filter (loop
	// elimination — any path through them would revisit us).
	n.beginRound()
	heads := n.headBuf[:0]
	for _, l := range u.Delta.Removes {
		heads = append(heads, l.To)
	}
	lost := len(heads) // heads[:lost] are walked in the old graph too
	scope := n.scopeBuf[:0]
	for _, li := range u.Delta.Adds {
		if li.Link.To == n.self {
			continue
		}
		var narrow bool
		if scope, narrow = nb.graph.AppendReannounced(scope, li); narrow {
			continue
		}
		heads = append(heads, li.Link.To)
		if !li.ToIsDest && nb.graph.IsDest(li.Link.To) {
			heads[lost], heads[len(heads)-1] = heads[len(heads)-1], heads[lost]
			lost++
		}
	}
	n.affectBelow(nb, false, heads[:lost]...)
	n.apply(nb.graph, u.Delta)
	n.affectBelow(nb, false, heads...)
	// The scoped destinations' cached derivations are dropped in the new
	// graph, which may have just marked one: nothing is cached for a
	// destination while it is unmarked, but what was cached before its
	// mark was cleared may still sit in its slot.
	for _, d := range scope {
		n.affect(d, false)
		n.forget(nb, d)
	}
	n.headBuf, n.scopeBuf = heads, scope
	// A re-announced link is evidence it is back in service: lift its
	// root-cause mask.
	for _, li := range u.Delta.Adds {
		if _, wasMasked := n.failed[li.Link]; wasMasked && li.Link.To != n.self {
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
	n.solveAffected(from)
}

// apply merges the neighbor's delta into its graph minus the import
// filter's drops, without copying the delta: the adds between two
// dropped links go to Apply as one sub-slice of the message's own.
func (n *Node) apply(g *pgraph.Graph, d pgraph.Delta) {
	g.Apply(pgraph.Delta{Removes: d.Removes})
	lo := 0
	for i, li := range d.Adds {
		if li.Link.To == n.self {
			g.Apply(pgraph.Delta{Adds: d.Adds[lo:i]})
			lo = i + 1
		}
	}
	g.Apply(pgraph.Delta{Adds: d.Adds[lo:]})
}

// beginRound empties the affected set for a new event.
func (n *Node) beginRound() {
	if n.epoch++; n.epoch == fullRank { // stamp wrap-around: forget every old round
		clear(n.stamp)
		n.epoch = 1
	}
	n.affected = n.affected[:0]
}

// affect adds destination d to the round's affected set, flagged for a
// full ranking when full is set, and returns its position, or -1 when d
// is no node of the network: such a destination has no slot, so it is
// never routed.
func (n *Node) affect(d routing.NodeID, full bool) int {
	p := n.idx.Pos(d)
	if p < 0 {
		return p
	}
	if n.stamp[p]&^fullRank != n.epoch {
		n.stamp[p] = n.epoch
		n.affected = append(n.affected, p)
	}
	if full {
		n.stamp[p] |= fullRank
	}
	return p
}

// forget drops the neighbor's cached derivation for destination d.
func (n *Node) forget(nb *neighbor, d routing.NodeID) {
	if s, ok := nb.graph.DestSlot(d); ok && s < nb.derived.Len() {
		*nb.derived.At(s) = nil
	}
}

// affectBelow adds to the affected set the destinations below any of
// heads in the neighbor's current graph — one traversal for all heads —
// and drops their cached derivations.
func (n *Node) affectBelow(nb *neighbor, full bool, heads ...routing.NodeID) {
	if len(heads) == 0 {
		return
	}
	n.belowBuf = nb.graph.AppendDestsBelow(n.belowBuf[:0], heads...)
	for _, dst := range n.belowBuf {
		n.affect(dst, full)
		n.forget(nb, dst)
	}
}

// maskAffect affects, for a link whose failed-mask state changed, the
// destinations whose derivations that can influence. Derivation consults
// the mask only for the in-links a graph actually holds, so only the
// neighbor graphs containing l are concerned; everywhere else every
// cached derivation, and hence every installed route, stands. The mask
// is every neighbor's, so these destinations are ranked in full.
func (n *Node) maskAffect(l routing.Link) {
	for i := range n.nbrs {
		if nb := &n.nbrs[i]; nb.graph != nil && nb.graph.HasLink(l) {
			n.affectBelow(nb, true, l.To)
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
		n.solveAffected(routing.None)
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
// storage is kept as the next session's spare; the class view, which
// also holds the neighbor's announced view, stays up to date, and the
// next session's first round announces all of it (see finish).
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
		n.belowBuf = nb.graph.AppendDests(n.belowBuf[:0])
		for _, d := range n.belowBuf {
			n.affect(d, false)
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
	n.solveAffected(b)
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
	n.affect(b, false)
	for _, l := range []routing.Link{{From: n.self, To: b}, {From: b, To: n.self}} {
		if _, wasMasked := n.failed[l]; wasMasked {
			delete(n.failed, l)
			n.maskAffect(l)
		}
	}
	n.solveAffected(b)
}

// solveAffected is the local solver plus announcement step: it re-solves
// the round's affected destinations in ascending order and sends
// per-neighbor deltas of the export-filtered views; only the views of
// classes an export-relevant route changed for are updated. sender is
// the neighbor whose state the event changed (Handle, LinkDown, LinkUp),
// routing.None when the round may have changed anyone's (Start, a mask
// expiry).
//
// Root-cause notifications ride along with the deltas: a node whose
// selected paths used a failed link withdraws that link in its delta, so
// exactly the nodes that were told about the link hear that it failed —
// nodes whose paths were unaffected never announced it and have nothing
// to propagate.
func (n *Node) solveAffected(sender routing.NodeID) {
	tele.recomputes.Inc()
	slices.Sort(n.affected)
	for c := range n.classes {
		n.classes[c].dirty = false
	}
	n.finish(n.solveSome(n.affected, sender))
}

// finish applies the round's route changes to the class views marked
// dirty (pgraph.ClassView over the §4.3.2 counter machinery), once per
// class, and sends each member's flushed Δ_B message; a session's first
// round announces the member's whole view instead (announceView). The
// round's root-cause links are copied once and the copy rides every
// message of the fan-out: a message is immutable once handed to Send, so
// receivers may share it.
func (n *Node) finish(changed []int) {
	failed := n.pendingFailed
	n.pendingFailed = failed[:0] // failed is read before the next round appends
	for c := range n.classes {
		ec := &n.classes[c]
		if ec.view == nil || !ec.dirty {
			continue // current, or built whole by a member's first announcement
		}
		for _, p := range changed {
			ec.view.Set(n.idx.ID(p), n.classPath(p, ec))
		}
		ec.view.Flush()
	}
	var sent []routing.Link
	for i, b := range n.nbrList {
		nb := &n.nbrs[i]
		if nb.graph == nil {
			continue
		}
		ec := &n.classes[nb.class]
		// Adversarial injections (nil for honest nodes) ride the same
		// delta so the receiver processes them like any announcement.
		inject := n.advInjects(b, nb)
		var delta pgraph.Delta
		switch {
		case nb.fresh:
			delta = n.announceView(nb)
		case ec.dirty:
			delta = ec.view.Delta(nb.member)
		case len(inject) == 0:
			// No exportable-to-b route changed; the view is current.
			continue
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

// announceView returns the full announcement of the view toward the
// neighbor (§4.3.1 Steps 1 and 4): the whole of its share of the class
// view, which finish has already brought up to date when it exists. The
// class's first session builds the class view from the route table; a
// restarted session, or a later member's first, finds it current. The
// maintained layout depends only on the path set, so this is exactly
// what a fresh view of the neighbor's paths would send.
func (n *Node) announceView(nb *neighbor) pgraph.Delta {
	nb.fresh = false
	ec := &n.classes[nb.class]
	if ec.view == nil {
		ec.view = pgraph.NewClassView(n.idx, n.self, ec.members)
		for p := range n.routes {
			if path := n.classPath(p, ec); path != nil {
				ec.view.Set(n.idx.ID(p), path)
			}
		}
		ec.view.Flush()
	}
	return pgraph.Delta{Adds: ec.view.LinkInfos(nb.member)}
}

// classPath returns the path the class view holds for the destination at
// position p: the selected path when the export filter admits its class,
// nil otherwise. The class view drops it for the members it traverses
// (sender-side loop avoidance).
func (n *Node) classPath(p int, ec *exportClass) routing.Path {
	if r := n.routes[p]; r.path != nil && ec.exportsClass(r.class) {
		return r.path
	}
	return nil
}

// solveSome is the local solver core (§3.2.3): for each destination the
// candidates are the unique policy-compliant paths DerivePath
// reconstructs from each neighbor P-graph, self-prepended, loop-checked,
// and ranked by the policy. Destinations no longer derivable anywhere
// lose their route. dests and the result are positions. A destination
// whose stamp lacks fullRank saw only sender's offer change and is
// decided from that offer when it can be (decide). It returns the
// destinations whose route changed (scratch, valid until the next
// round), having marked dirty every neighbor whose export view a changed
// route could alter.
func (n *Node) solveSome(dests []int, sender routing.NodeID) []int {
	// With nothing masked the derivations take their unfiltered fast
	// path; the result is the same as filtering with an empty mask.
	var skip func(routing.Link) bool
	if len(n.failed) > 0 {
		skip = n.isFailed
	}
	snd := n.neighbor(sender)
	changed := n.changedBuf[:0]
	for _, p := range dests {
		if n.idx.ID(p) == n.self {
			continue
		}
		best, ok := policy.Candidate{}, false
		if snd != nil && n.stamp[p]&fullRank == 0 {
			best, ok = n.decide(p, sender, snd, skip)
		}
		if !ok {
			best = n.rank(p, skip)
		}
		if n.applyBest(p, best) {
			changed = append(changed, p)
		}
	}
	n.changedBuf = changed
	return changed
}

// decide returns rank's answer for the destination at position p without
// ranking, when p's installed route is rank's answer over the offers
// before the event and only neighbor b's offer may have changed since:
// it derives b's offer alone and compares it with the installed route.
// ok is false when the comparison cannot tell, and p must be ranked.
//
// Better is a strict weak order (see policy.Policy), so rank's answer is
// the first offer, in neighbor order, of the best equivalence class.
// Then an offer strictly better than the installed route beats every
// other offer too; an installed route via another neighbor that is
// strictly better than b's offer, or faces none, stays the first of the
// best class; and an unchanged offer from the installed route's own
// neighbor changes nothing. No installed route means no neighbor
// offered one, so b's offer, if any, is the only one. Any other case,
// a tie included, is ranked.
func (n *Node) decide(p int, b routing.NodeID, nb *neighbor, skip func(routing.Link) bool) (best policy.Candidate, ok bool) {
	offer := n.offer(p, b, nb, skip)
	r := &n.routes[p]
	if r.path == nil {
		return offer, true
	}
	cur := policy.Candidate{Path: r.path[1:], Class: r.class, Via: r.via}
	switch {
	case len(offer.Path) > 0 && n.pol.Better(n.self, offer, cur):
		return offer, true
	case r.via != b && (len(offer.Path) == 0 || n.pol.Better(n.self, cur, offer)):
		return cur, true
	case r.via == b && len(offer.Path) > 0 && offer.Path.Equal(cur.Path):
		return cur, true
	}
	return policy.Candidate{}, false
}

// rank returns the best candidate for the destination at position p as
// the via neighbor derived it — not yet self-prepended — or the zero
// Candidate when no neighbor offers an acceptable path. Ranking the
// neighbor-derived paths is sound: every comparison sees both lengths
// offset by the same +1, and class/via/destination are unaffected.
func (n *Node) rank(p int, skip func(routing.Link) bool) policy.Candidate {
	var best policy.Candidate
	for i, b := range n.nbrList {
		cand := n.offer(p, b, &n.nbrs[i], skip)
		if len(cand.Path) > 0 && (len(best.Path) == 0 || n.pol.Better(n.self, cand, best)) {
			best = cand
		}
	}
	return best
}

// offer returns neighbor b's candidate for the destination at position
// p, the zero Candidate when b offers no acceptable path.
func (n *Node) offer(p int, b routing.NodeID, nb *neighbor, skip func(routing.Link) bool) policy.Candidate {
	if nb.graph == nil {
		return policy.Candidate{}
	}
	path, ok := n.derive(nb, p, skip)
	if !ok || !n.pol.Accept(n.self, b, path) {
		return policy.Candidate{}
	}
	return policy.Candidate{Path: path, Class: policy.ClassOf(nb.rel), Via: b}
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
	// Every class whose export view the change can alter is dirty.
	for c := range n.classes {
		if ec := &n.classes[c]; !ec.dirty && (ec.exportsClass(old.class) || ec.exportsClass(best.Class)) {
			ec.dirty = true
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
// is down, although the class view keeps b's share up to date for the
// next session.
func (n *Node) ExportedView(b routing.NodeID) []pgraph.LinkInfo {
	if nb := n.neighbor(b); nb != nil && nb.graph != nil {
		if ec := &n.classes[nb.class]; ec.view != nil {
			return ec.view.LinkInfos(nb.member)
		}
	}
	return nil
}
