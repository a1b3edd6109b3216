// Package bgp implements the path-vector baseline the paper compares
// Centaur against: a session-level BGP abstraction with per-neighbor
// Adj-RIBs-In, the standard decision process under Gao–Rexford policies,
// export filtering, announce/withdraw updates, and an optional MRAI
// (Minimum Route Advertisement Interval) batching timer.
//
// Each node originates one destination (itself), matching the paper's
// one-AS-one-node model. Update messages carry one destination each, so
// sim.Stats.Units counts per-destination updates — the unit BGP
// convergence studies (and the paper's Figures 5–8) use.
package bgp

import (
	"fmt"
	"slices"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
	"centaur/internal/wire"
)

// Update is a single-destination BGP UPDATE message. A nil Path is a
// withdrawal; otherwise Path is the sender's full path to Dest (sender
// first). FailedLinks carries BGP-RCN root cause notifications (see
// rcn.go); it is always empty in plain BGP mode.
//
// An Update is immutable once sent: the same boxed value goes to every
// neighbor a decision is advertised to, and its Path is the slice the
// sender installed and the receivers store.
type Update struct {
	Dest        routing.NodeID
	Path        routing.Path
	FailedLinks []routing.Link
}

var _ sim.Message = Update{}

// Kind implements sim.Message.
func (Update) Kind() string { return "bgp.update" }

// Units implements sim.Message: one destination per update.
func (Update) Units() int { return 1 }

// WireBytes implements sim.ByteSizer with the internal/wire encoding.
func (u Update) WireBytes() int {
	return wire.BGPUpdateSize(wire.BGPUpdate{
		Dest: u.Dest, Path: u.Path, FailedLinks: u.FailedLinks,
	})
}

// String renders the update for traces.
func (u Update) String() string {
	if u.Path == nil {
		return fmt.Sprintf("WITHDRAW %v", u.Dest)
	}
	return fmt.Sprintf("ANNOUNCE %v via %v", u.Dest, u.Path)
}

// Config parameterizes a BGP node.
type Config struct {
	// Policy supplies import/export filters and ranking; nil means
	// policy.GaoRexford{}. Better is handed neighbor-learned candidates
	// with the path as announced, one hop short of the node's own: every
	// such candidate misses the same first hop, so a ranking by class,
	// destination, length and via (all that GaoRexford reads) is unmoved.
	Policy policy.Policy
	// MRAI is the minimum interval between successive advertisement
	// batches to the same neighbor; zero disables the timer, which is
	// the default used in the reproduction's figures (see DESIGN.md §2.4
	// — BGP's slower convergence then stems purely from path
	// exploration, the mechanism the paper cites).
	MRAI time.Duration
	// RCN enables BGP-RCN root cause notification (the paper's
	// reference [15]; see rcn.go), an intermediate baseline between
	// plain BGP and Centaur.
	RCN bool
	// rcnMaskTTL bounds how long an RCN mask suppresses candidates
	// crossing a failed link; zero means one second. Only tests shorten
	// it.
	rcnMaskTTL time.Duration
	// Adversary, when non-nil, makes the model's attacker nodes
	// misbehave (route leaks, hijack originations, data-plane drops —
	// see internal/adversary). All hooks are nil-checked: a nil model
	// leaves every honest code path untouched and runs byte-identical
	// to builds without the suite.
	Adversary *adversary.Model
}

// Node is one BGP speaker. Create with New; it implements sim.Protocol.
//
// Per-destination state lives in rows, a table sized once by the
// network's topology.Index and keyed by a destination's position there;
// updates still carry NodeIDs. Per-neighbor state lives in peers,
// parallel to nbrs; a neighbor's index in nbrs is its slot, the key of
// the per-row RIB entries.
type Node struct {
	cfg  Config
	pol  policy.Policy
	env  sim.Env
	self routing.NodeID
	idx  *topology.Index
	adv  *adversary.Model // nil for honest runs
	// nbrs is the fixed neighbor set in ascending ID order (the
	// topology's adjacencies do not change; only link state does).
	nbrs  []routing.NodeID
	peers []peer
	rows  []row

	// BGP-RCN state (rcn.go): masked failed links and their generation
	// sequence. The per-neighbor root-cause queues are in peers.
	failed    map[edgeKey]uint64
	failedGen uint64

	// candBuf is the decision process's candidate list, reused per call.
	candBuf []policy.Candidate
}

// peer is the state kept for one neighbor.
type peer struct {
	rel topology.Relationship
	// MRAI state: destinations awaiting the timer (ascending), and
	// whether the timer is armed.
	pending   []routing.NodeID
	mraiArmed bool
	// rcn queues root causes for delivery with the next update (RCN only).
	rcn []rcnNotice
}

// row is everything the node knows about one destination.
type row struct {
	// best is the Loc-RIB entry; a nil Path means no route.
	best policy.Candidate
	// in is the Adj-RIB-In: per neighbor, the path as announced (neighbor
	// first; self is prepended only to the candidate that becomes best,
	// see runDecision). out is the path last advertised to each neighbor.
	// Both list only the neighbors that have an entry, in ascending slot
	// order.
	in, out []ribEntry
}

// ribEntry is one neighbor's path in a row.
type ribEntry struct {
	slot int
	path routing.Path
}

// findScanMax is the longest list find scans; longer ones, the rows of
// a hub (degree 72 on the baseline graph), it bisects.
const findScanMax = 8

// find returns where slot's entry is (or would be inserted) in a
// slot-sorted list, and whether it is there: a scan up to findScanMax
// entries, a binary search beyond.
func find(es []ribEntry, slot int) (int, bool) {
	lo, hi := 0, len(es)
	for hi-lo > findScanMax {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].slot < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return seek(es, slot, lo)
}

// seek is find for a caller that knows every entry before from has a
// lower slot: it scans forward from there.
func seek(es []ribEntry, slot, from int) (int, bool) {
	for i := from; i < len(es); i++ {
		if es[i].slot >= slot {
			return i, es[i].slot == slot
		}
	}
	return len(es), false
}

// set installs p as slot's path, given find's answer (i, had) for slot.
func set(es *[]ribEntry, i int, had bool, slot int, p routing.Path) {
	if had {
		(*es)[i].path = p
		return
	}
	*es = slices.Insert(*es, i, ribEntry{slot: slot, path: p})
}

// drop removes slot's entry from the list and reports whether it had one.
func drop(es *[]ribEntry, slot int) bool {
	i, had := find(*es, slot)
	if had {
		*es = slices.Delete(*es, i, i+1)
	}
	return had
}

// outbox holds the boxed announcement and withdrawal of one
// destination's current state, built on first use, so that a decision
// advertised to k neighbors allocates one sim.Message, not k. Messages
// are immutable once sent, which is what makes the sharing safe.
type outbox struct {
	announce, withdraw sim.Message
}

// update returns the message carrying path (nil: a withdrawal) for
// dest. Root causes ride on one neighbor's update only, so an update
// with any is made for it alone.
func (b *outbox) update(dest routing.NodeID, path routing.Path, failed []routing.Link) sim.Message {
	if failed != nil {
		return Update{Dest: dest, Path: path, FailedLinks: failed}
	}
	m := &b.announce
	if path == nil {
		m = &b.withdraw
	}
	if *m == nil {
		*m = Update{Dest: dest, Path: path}
	}
	return *m
}

// rcnNotice is a queued root cause awaiting delivery to one neighbor; a
// notice not delivered before its deadline is stale (the convergence
// episode it belonged to is over) and is dropped rather than sent.
type rcnNotice struct {
	link     routing.Link
	deadline time.Duration
}

var _ sim.Protocol = (*Node)(nil)

// New returns the sim.Builder for BGP nodes with the given configuration.
func New(cfg Config) sim.Builder {
	return func(env sim.Env) sim.Protocol {
		pol := cfg.Policy
		if pol == nil {
			pol = policy.GaoRexford{}
		}
		idx := env.Index()
		n := &Node{
			cfg:  cfg,
			pol:  pol,
			env:  env,
			self: env.Self(),
			idx:  idx,
			adv:  cfg.Adversary,
			rows: make([]row, idx.Len()),
		}
		for _, nb := range env.Neighbors() { // ascending by ID
			n.nbrs = append(n.nbrs, nb.ID)
			n.peers = append(n.peers, peer{rel: nb.Rel})
		}
		return n
	}
}

// row returns dest's row; dest must be a node of the network.
func (n *Node) row(dest routing.NodeID) *row {
	return &n.rows[n.idx.Pos(dest)]
}

// bestOf returns the Loc-RIB entry for dest (the zero Candidate when
// dest is no node of the network).
func (n *Node) bestOf(dest routing.NodeID) policy.Candidate {
	if p := n.idx.Pos(dest); p >= 0 {
		return n.rows[p].best
	}
	return policy.Candidate{}
}

// Start implements sim.Protocol: originate the node's own destination
// and announce it to every neighbor.
func (n *Node) Start(env sim.Env) {
	n.env = env
	n.row(n.self).best = policy.Candidate{
		Path:  routing.Path{n.self},
		Class: policy.ClassOwn,
		Via:   routing.None,
	}
	env.RouteChangedVia(n.self, routing.None, routing.None)
	n.advertiseAll(n.self)
	// A hijacking attacker additionally announces its victim destination
	// from session start; advertise supplies the forged path.
	if v, ok := n.adv.HijackVictim(n.self); ok {
		n.advertiseAll(v)
	}
}

// Handle implements sim.Protocol.
func (n *Node) Handle(from routing.NodeID, msg sim.Message) {
	u, ok := msg.(Update)
	if !ok {
		return
	}
	slot, ok := slices.BinarySearch(n.nbrs, from)
	pos := n.idx.Pos(u.Dest)
	if !ok || pos < 0 {
		return // not a neighbor, or a destination with no row
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
	in := &n.rows[pos].in
	i, had := find(*in, slot)
	if u.Path == nil || !n.pol.Accept(n.self, from, u.Path) {
		// Withdrawal, or a path the import filter rejects (e.g. it
		// contains this node): either way it replaces — and removes —
		// whatever the neighbor previously announced for the destination.
		if had {
			*in = slices.Delete(*in, i, i+1)
			n.decide(u.Dest, slot, nil)
		}
		return
	}
	// Stored as announced and shared with the sender: paths are immutable.
	set(in, i, had, slot, u.Path)
	n.decide(u.Dest, slot, u.Path)
}

// queueRCN schedules delivery of the root cause to every neighbor with
// that neighbor's next real update, valid until the mask TTL elapses.
func (n *Node) queueRCN(l routing.Link) {
	ttl := n.cfg.rcnMaskTTL
	if ttl <= 0 {
		ttl = time.Second
	}
	tele.rcnNotices.Inc()
	deadline := n.env.Now() + ttl
	for i := range n.peers {
		n.peers[i].rcn = append(n.peers[i].rcn, rcnNotice{link: l, deadline: deadline})
	}
}

// decide re-selects the best route for dest after the neighbor in slot
// replaced its Adj-RIB-In entry by offer (nil: withdrawn), the only entry
// that changed since dest's last decision. It compares that one offer
// with the installed route, by the rule and the argument of Centaur's
// decide, and runs the full decision process only when the comparison
// cannot tell. With RCN a mask can also have moved, so every decision
// is a full one.
func (n *Node) decide(dest routing.NodeID, slot int, offer routing.Path) {
	if n.cfg.RCN {
		n.runDecision(dest)
		return
	}
	old := n.row(dest).best
	via := n.nbrs[slot]
	cand := policy.Candidate{Path: offer, Class: policy.ClassOf(n.peers[slot].rel), Via: via}
	if len(offer) == 0 {
		cand = policy.Candidate{}
	}
	if len(old.Path) > 0 {
		cur := old
		if cur.Via != routing.None {
			cur.Path = cur.Path[1:] // ranked as announced, see Config.Policy
		}
		switch {
		case len(cand.Path) > 0 && n.pol.Better(n.self, cand, cur):
			// The offer beats every candidate: install it.
		case old.Via != via && (len(cand.Path) == 0 || n.pol.Better(n.self, cur, cand)):
			cand = cur
		case old.Via == via && len(cand.Path) > 0 && cur.Path.Equal(cand.Path):
			cand = cur
		default:
			n.runDecision(dest)
			return
		}
	}
	tele.decisions.Inc()
	n.install(dest, cand)
}

// runDecision re-selects the best route for dest over every candidate
// and, on change, schedules advertisements to every neighbor.
func (n *Node) runDecision(dest routing.NodeID) {
	tele.decisions.Inc()
	r := n.row(dest)
	cands := n.candBuf[:0]
	if dest == n.self {
		cands = append(cands, policy.Candidate{
			Path:  routing.Path{n.self},
			Class: policy.ClassOwn,
			Via:   routing.None,
		})
	}
	for _, e := range r.in { // ascending by neighbor ID
		if n.cfg.RCN && n.masked(n.nbrs[e.slot], e.path) {
			continue // RCN: never explore a path over a failed link
		}
		cands = append(cands, policy.Candidate{
			Path:  e.path,
			Class: policy.ClassOf(n.peers[e.slot].rel),
			Via:   n.nbrs[e.slot],
		})
	}
	// policy.Best copies the winner out by value, so the buffer can be
	// reused on the next decision.
	newBest := policy.Best(n.pol, n.self, cands)
	n.candBuf = cands[:0]
	n.install(dest, newBest)
}

// install makes newBest (a neighbor's candidate as announced, the own
// route, or the zero Candidate for none) dest's Loc-RIB entry and, when
// that changes the entry, schedules advertisements to every neighbor.
func (n *Node) install(dest routing.NodeID, newBest policy.Candidate) {
	r := n.row(dest)
	old := r.best
	had := len(old.Path) > 0
	if newBest.Via != routing.None {
		// A neighbor's candidate: its path lacks this node until installed.
		if had && newBest.Via == old.Via && old.Path[1:].Equal(newBest.Path) {
			return
		}
		newBest.Path = newBest.Path.Prepend(n.self)
	} else if had && newBest.Path.Equal(old.Path) && newBest.Via == old.Via {
		return
	}
	if !had && len(newBest.Path) == 0 {
		return
	}
	// With no route both Vias are routing.None: the zero Candidate's.
	r.best = newBest
	n.env.RouteChangedVia(dest, old.Via, newBest.Via)
	n.advertiseAll(dest)
}

// advertiseAll schedules the advertisement of dest's current state to
// every neighbor, in ascending ID order, sharing one boxed message. The
// slots ascend, so a cursor walks dest's row.out once in step with them
// instead of searching it per neighbor.
func (n *Node) advertiseAll(dest routing.NodeID) {
	var box outbox
	cur := 0
	for slot := range n.nbrs {
		n.scheduleAdvert(slot, dest, &box, &cur)
	}
}

// scheduleAdvert queues (or immediately performs) the advertisement of
// dest's current state to the neighbor in slot, honoring MRAI. cur is
// advertise's cursor, nil outside advertiseAll.
func (n *Node) scheduleAdvert(slot int, dest routing.NodeID, box *outbox, cur *int) {
	if !n.env.LinkIsUp(n.nbrs[slot]) {
		return
	}
	if n.cfg.MRAI <= 0 {
		n.advertise(slot, dest, box, cur)
		return
	}
	p := &n.peers[slot]
	if i, held := slices.BinarySearch(p.pending, dest); !held {
		p.pending = slices.Insert(p.pending, i, dest)
	}
	if p.mraiArmed {
		return
	}
	n.flushPending(slot)
	n.armMRAI(slot)
}

// armMRAI starts the neighbor's MRAI timer; when it fires, held updates
// are flushed and the timer re-arms if any were sent.
func (n *Node) armMRAI(slot int) {
	n.peers[slot].mraiArmed = true
	n.env.After(n.cfg.MRAI, func() {
		n.peers[slot].mraiArmed = false
		if len(n.peers[slot].pending) > 0 && n.env.LinkIsUp(n.nbrs[slot]) {
			n.flushPending(slot)
			n.armMRAI(slot)
		}
	})
}

// flushPending advertises every held destination to the neighbor in
// slot, in ascending order. advertise never queues, so the list is
// stable for the duration of the loop.
func (n *Node) flushPending(slot int) {
	tele.mraiFlushes.Inc()
	p := &n.peers[slot]
	for _, d := range p.pending {
		n.advertise(slot, d, &outbox{}, nil)
	}
	p.pending = p.pending[:0]
}

// advertise sends the current state of dest to the neighbor in slot if
// it differs from what was last advertised: the best path when
// exportable, a withdrawal otherwise. Attacker nodes (Config.Adversary)
// deviate here — and only here — on the control plane: a hijacker
// forges an origination of its victim destination, and a leaker
// re-exports provider/peer routes to providers and peers where the
// export rule forbids it (CAIR's route-leak pattern). The honest branch
// is untouched when no model is attached.
//
// A non-nil cur is an index into dest's row.out before which every entry
// has a lower slot; the lookup scans from there and leaves it at slot's
// position, which keeps that true for any higher slot. A held
// advertisement (MRAI) changes only slot's own entry, at or after the
// cursor, so skipping the call leaves the cursor valid too.
func (n *Node) advertise(slot int, dest routing.NodeID, box *outbox, cur *int) {
	nb, rel := n.nbrs[slot], n.peers[slot].rel
	r := n.row(dest)
	var toSend routing.Path
	injected := false
	if v, ok := n.adv.HijackVictim(n.self); ok && dest == v {
		toSend = routing.Path{n.self} // forged origination of the victim
		injected = true
		box = &outbox{} // not the path the other neighbors are sent
	} else if best := r.best; len(best.Path) > 0 &&
		!best.Path.Contains(nb) { // sender-side loop avoidance
		switch {
		case n.pol.Export(n.self, best.Class, rel):
			toSend = best.Path
		case n.adv.Leaks(n.self) && adversary.LeakClass(best.Class) && adversary.LeakTarget(rel):
			toSend = best.Path
			injected = true
		}
	}
	var i int
	var had bool
	if cur != nil {
		i, had = seek(r.out, slot, *cur)
		*cur = i
	} else {
		i, had = find(r.out, slot)
	}
	if toSend == nil {
		if !had {
			return
		}
		r.out = slices.Delete(r.out, i, i+1)
		n.env.Send(nb, box.update(dest, nil, n.drainRCN(slot)))
		return
	}
	if had && r.out[i].path.Equal(toSend) {
		return
	}
	// Paths are immutable once installed (Prepend copies), so the best
	// path can back both the advertised record and the in-flight update
	// without defensive clones.
	set(&r.out, i, had, slot, toSend)
	n.env.Send(nb, box.update(dest, toSend, n.drainRCN(slot)))
	if injected {
		n.adv.NoteInjected(dest, 1)
	}
}

// drainRCN empties the queued root cause notifications of the neighbor
// in slot for attachment to the update being sent, dropping notices
// whose episode has already expired.
func (n *Node) drainRCN(slot int) []routing.Link {
	p := &n.peers[slot]
	if len(p.rcn) == 0 {
		return nil
	}
	now := n.env.Now()
	out := make([]routing.Link, 0, len(p.rcn))
	for _, q := range p.rcn {
		if q.deadline >= now {
			out = append(out, q.link)
		}
	}
	p.rcn = p.rcn[:0]
	if len(out) == 0 {
		return nil
	}
	return out
}

// LinkDown implements sim.Protocol: flush all state learned from and
// advertised to the failed neighbor, re-running the decision process,
// in ascending order, for every destination the neighbor had supplied a
// candidate for. A decision touches only its own row, so flushing row
// by row is the same as flushing everything first.
func (n *Node) LinkDown(nb routing.NodeID) {
	slot, ok := slices.BinarySearch(n.nbrs, nb)
	if !ok {
		return
	}
	if n.cfg.RCN {
		n.queueRCN(routing.Link{From: n.self, To: nb})
		n.maskEdge(edgeOf(n.self, nb))
	}
	n.peers[slot].pending = n.peers[slot].pending[:0]
	for d := 0; d < len(n.rows); d++ {
		r := &n.rows[d]
		drop(&r.out, slot)
		if drop(&r.in, slot) {
			n.decide(n.idx.ID(d), slot, nil)
		}
	}
	if n.cfg.RCN {
		n.redecideCrossing(edgeOf(n.self, nb))
	}
}

// LinkUp implements sim.Protocol: session re-establishment — advertise
// the full table to the recovered neighbor, in ascending order.
func (n *Node) LinkUp(nb routing.NodeID) {
	slot, ok := slices.BinarySearch(n.nbrs, nb)
	if !ok {
		return
	}
	if n.cfg.RCN {
		n.peers[slot].rcn = n.peers[slot].rcn[:0] // stale notices must not greet the new session
		n.unmaskEdge(edgeOf(n.self, nb))
	}
	for d := 0; d < len(n.rows); d++ {
		if len(n.rows[d].best.Path) > 0 {
			n.scheduleAdvert(slot, n.idx.ID(d), &outbox{}, nil)
		}
	}
	// A hijack victim destination is advertised without a best-path
	// entry, so the table walk above misses it.
	if v, ok := n.adv.HijackVictim(n.self); ok && len(n.bestOf(v).Path) == 0 {
		n.scheduleAdvert(slot, v, &outbox{}, nil)
	}
}

// BestPath returns the node's selected path to dest (nil when it has no
// route). Exposed for tests and experiment harnesses.
func (n *Node) BestPath(dest routing.NodeID) routing.Path {
	return n.bestOf(dest).Path.Clone()
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
	if p := n.bestOf(dest).Path; len(p) >= 2 {
		return p[1]
	}
	return routing.None
}
