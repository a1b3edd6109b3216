package ospf

// The map-backed OSPF router this package used before the table-backed
// one, kept (minus telemetry, the LSDB accessors and checkpointing) as
// the reference model TestNodeMatchesModel runs the real Node against,
// event by event, next hops included.

import (
	"sort"

	"centaur/internal/routing"
	"centaur/internal/sim"
)

// refNode is the reference router; see Node for what the state means.
type refNode struct {
	env  sim.Env
	self routing.NodeID
	cfg  Config
	seq  uint64
	lsdb map[routing.NodeID]LSA
	// spf caches the next-hop table; nil means stale.
	spf map[routing.NodeID]routing.NodeID
}

var _ sim.Protocol = (*refNode)(nil)

func newRefNode(cfg Config, env sim.Env) *refNode {
	return &refNode{
		env:  env,
		self: env.Self(),
		cfg:  cfg,
		lsdb: make(map[routing.NodeID]LSA),
	}
}

// Start implements sim.Protocol: originate and flood the initial LSA.
func (n *refNode) Start(env sim.Env) {
	n.env = env
	n.originate()
}

// originate rebuilds this node's own LSA from its current up
// adjacencies, bumps the sequence number, installs it, and floods it.
func (n *refNode) originate() {
	nbrs := make([]routing.NodeID, 0, 4)
	for _, nb := range n.env.Neighbors() { // ascending by ID
		if n.env.LinkIsUp(nb.ID) {
			nbrs = append(nbrs, nb.ID)
		}
	}
	n.seq++
	lsa := LSA{Origin: n.self, Seq: n.seq, Neighbors: nbrs}
	n.lsdb[n.self] = lsa
	n.spf = nil
	// Deliberately the next-hop-less RouteChanged (not RouteChangedVia):
	// SPF is lazy, so the new next hops aren't known here, and computing
	// them eagerly just to report them would bump the ospf.spf_runs
	// counter and perturb provenance-off outputs. Schema-v2 traces mark
	// these route events "next hop unknown" by omitting oh/nh.
	n.env.RouteChanged(n.self)
	n.flood(lsa, routing.None)
}

// flood forwards lsa to every up neighbor except the one it came from.
// LSAs are immutable once originated (originate builds a fresh Neighbors
// slice and nothing writes to an installed one), so every hop can share
// the same backing array without defensive clones.
func (n *refNode) flood(lsa LSA, except routing.NodeID) {
	for _, nb := range n.env.Neighbors() {
		if nb.ID == except || !n.env.LinkIsUp(nb.ID) {
			continue
		}
		n.env.Send(nb.ID, Flood{LSA: lsa})
	}
}

// Handle implements sim.Protocol: install newer LSAs and re-flood them.
func (n *refNode) Handle(from routing.NodeID, msg sim.Message) {
	f, ok := msg.(Flood)
	if !ok {
		return
	}
	if f.LSA.Origin == n.self {
		// A self-originated LSA strictly newer than the one we installed
		// is a pre-crash incarnation's, still circulating with a higher
		// sequence number. Adopt that number and supersede it
		// (RFC 2328 §13.4), or every post-restart origination would be
		// discarded as stale. Echoes of our own current LSA (equal Seq)
		// fall through to the stale check below and stop there.
		if cur, have := n.lsdb[n.self]; have && f.LSA.Seq > cur.Seq {
			n.seq = f.LSA.Seq
			n.originate()
			return
		}
	}
	cur, have := n.lsdb[f.LSA.Origin]
	if have && f.LSA.Seq <= cur.Seq {
		tele.staleLSAs.Inc()
		return // stale or duplicate — flooding stops here
	}
	n.lsdb[f.LSA.Origin] = f.LSA
	n.spf = nil
	// An installed LSA invalidates SPF: routes toward (at least) the
	// origin may differ once recomputed. Next hops are unreported (plain
	// RouteChanged) because SPF is lazy — see originate.
	n.env.RouteChanged(f.LSA.Origin)
	n.flood(f.LSA, from)
}

// LinkDown implements sim.Protocol: re-originate with the adjacency
// removed. Both endpoints do this, so the failure is flooded twice
// network-wide — the standard link-state cost Figure 7 measures.
func (n *refNode) LinkDown(routing.NodeID) { n.originate() }

// LinkUp implements sim.Protocol: re-originate with the adjacency back.
// With Config.DatabaseExchange the node first unicasts its whole LSDB to
// the new neighbor (RFC 2328's database exchange, approximated as a
// one-shot push) so a freshly restarted peer recovers the topology —
// and, crucially, hears its own pre-crash LSA and supersedes it.
func (n *refNode) LinkUp(nb routing.NodeID) {
	if n.cfg.DatabaseExchange {
		origins := make([]routing.NodeID, 0, len(n.lsdb))
		for origin := range n.lsdb {
			if origin == n.self {
				continue // originate() below refloods a fresh self-LSA
			}
			origins = append(origins, origin)
		}
		sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
		for _, origin := range origins {
			n.env.Send(nb, Flood{LSA: n.lsdb[origin]})
		}
	}
	n.originate()
}

// NextHop returns this node's shortest-path next hop toward dest
// (routing.None when unreachable), computing SPF on demand. Links count
// only when both endpoint LSAs agree they are up (OSPF's two-way check).
func (n *refNode) NextHop(dest routing.NodeID) routing.NodeID {
	if n.spf == nil {
		n.runSPF()
	}
	return n.spf[dest]
}

// runSPF runs hop-count Dijkstra (BFS, since all links weigh 1) over the
// LSDB and fills the next-hop cache.
func (n *refNode) runSPF() {
	n.spf = make(map[routing.NodeID]routing.NodeID, len(n.lsdb))
	// twoWay reports whether the directed LSDB edge a->b is confirmed by
	// b's LSA listing a.
	twoWay := func(a, b routing.NodeID) bool {
		back, ok := n.lsdb[b]
		if !ok {
			return false
		}
		i := sort.Search(len(back.Neighbors), func(i int) bool { return back.Neighbors[i] >= a })
		return i < len(back.Neighbors) && back.Neighbors[i] == a
	}
	type item struct {
		node  routing.NodeID
		first routing.NodeID // first hop from self
	}
	queue := []item{{node: n.self, first: routing.None}}
	visited := map[routing.NodeID]struct{}{n.self: {}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		lsa, ok := n.lsdb[cur.node]
		if !ok {
			continue
		}
		for _, nb := range lsa.Neighbors {
			if _, seen := visited[nb]; seen {
				continue
			}
			if !twoWay(cur.node, nb) {
				continue
			}
			visited[nb] = struct{}{}
			first := cur.first
			if cur.node == n.self {
				first = nb
			}
			n.spf[nb] = first
			queue = append(queue, item{node: nb, first: first})
		}
	}
}
