// Package ospf implements the link-state flooding baseline of the
// paper's Figure 7: sequence-numbered router LSAs, reliable flooding
// (each new LSA is re-flooded on every link except the one it arrived
// on), a full-topology link-state database, and on-demand Dijkstra SPF.
//
// As the paper notes, "OSPF does not implement policies, so every link's
// information needs to be transmitted over every other link in the
// network" — that is exactly the behaviour reproduced here, and it is
// what Centaur's selective downstream-link announcement is measured
// against.
//
// Simplifications relative to RFC 2328, documented for the record: no
// explicit acknowledgements or retransmissions (the simulator's links
// are reliable while up; under injected message loss, wrap the protocol
// in sim.Reliable). By default there is also no database exchange on
// adjacency formation — the evaluation workload (sequential single-link
// flips with full reconvergence in between) guarantees the only LSAs
// that change while a link is down are those of its two endpoints,
// which are re-originated and flooded on restore. That guarantee breaks
// under node crashes: a restarted router has an empty LSDB that nothing
// refloods, and its own pre-crash LSA survives in the network with a
// higher sequence number than its restarted incarnation originates.
// Config.DatabaseExchange enables the RFC's two recovery mechanisms:
// full LSDB exchange toward a newly up adjacency, and sequence-number
// adoption when a router hears a self-originated LSA newer than its own
// (it re-originates one past it). The fault-injection experiments run
// with both enabled; the Figure 6–8 baselines keep the default so their
// message counts stay comparable with the paper's setup.
package ospf

import (
	"fmt"
	"slices"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
	"centaur/internal/wire"
)

// LSA is a router link-state advertisement: the originator's current
// adjacency list, versioned by a sequence number.
type LSA struct {
	Origin routing.NodeID
	Seq    uint64
	// Neighbors is the originator's up adjacencies, sorted ascending.
	Neighbors []routing.NodeID
}

// String renders the LSA for traces.
func (l LSA) String() string {
	return fmt.Sprintf("LSA(origin=%v seq=%d nbrs=%v)", l.Origin, l.Seq, l.Neighbors)
}

// Flood is the message that carries one LSA hop-by-hop.
type Flood struct {
	LSA LSA
}

var _ sim.Message = Flood{}

// Kind implements sim.Message.
func (Flood) Kind() string { return "ospf.lsa" }

// Units implements sim.Message: one LSA per flood hop.
func (Flood) Units() int { return 1 }

// WireBytes implements sim.ByteSizer with the internal/wire encoding.
func (f Flood) WireBytes() int {
	return wire.OSPFLSASize(wire.OSPFLSA{
		Origin:    f.LSA.Origin,
		Seq:       f.LSA.Seq,
		Neighbors: f.LSA.Neighbors,
	})
}

// Config parameterizes an OSPF node.
type Config struct {
	// DatabaseExchange enables crash recovery: on every LinkUp the node
	// sends its full LSDB to the newly adjacent neighbor (the RFC 2328
	// database-exchange approximation), repopulating a restarted
	// router's empty database — including that router's own pre-crash
	// LSA, whose sequence number it then adopts and supersedes. The
	// default (off) preserves the Figure 6–8 baseline message counts,
	// which the flip workload keeps correct without it.
	DatabaseExchange bool
}

// Node is one OSPF router. Create with New or NewWithConfig; it
// implements sim.Protocol.
//
// The link-state database and the next-hop table are sized once by the
// network's topology.Index and keyed by a node's position there; LSAs
// still carry NodeIDs.
type Node struct {
	env  sim.Env
	self routing.NodeID
	idx  *topology.Index
	cfg  Config
	seq  uint64
	// lsdb[p] is the newest LSA of the origin at position p; Seq == 0
	// marks an origin not heard from (originated sequence numbers start
	// at 1, and a received LSA numbered 0 is discarded as stale).
	lsdb []LSA
	// spf[p] is the cached next hop toward the node at position p, valid
	// while spfOK.
	spf   []routing.NodeID
	spfOK bool
	queue []int // runSPF's BFS queue of positions, reused
}

var _ sim.Protocol = (*Node)(nil)

// New returns the sim.Builder for OSPF nodes with the default Config.
func New() sim.Builder { return NewWithConfig(Config{}) }

// NewWithConfig returns the sim.Builder for OSPF nodes.
func NewWithConfig(cfg Config) sim.Builder {
	return func(env sim.Env) sim.Protocol {
		idx := env.Index()
		return &Node{
			env:  env,
			self: env.Self(),
			idx:  idx,
			cfg:  cfg,
			lsdb: make([]LSA, idx.Len()),
			spf:  make([]routing.NodeID, idx.Len()),
		}
	}
}

// Start implements sim.Protocol: originate and flood the initial LSA.
func (n *Node) Start(env sim.Env) {
	n.env = env
	n.originate()
}

// install stores lsa as the newest of its origin, the node at position
// p, and invalidates SPF.
func (n *Node) install(p int, lsa LSA) {
	n.lsdb[p] = lsa
	n.spfOK = false
}

// originate rebuilds this node's own LSA from its current up
// adjacencies, bumps the sequence number, installs it, and floods it.
func (n *Node) originate() {
	all := n.env.Neighbors() // ascending by ID
	nbrs := make([]routing.NodeID, 0, len(all))
	for _, nb := range all {
		if n.env.LinkIsUp(nb.ID) {
			nbrs = append(nbrs, nb.ID)
		}
	}
	n.seq++
	lsa := LSA{Origin: n.self, Seq: n.seq, Neighbors: nbrs}
	n.install(n.idx.Pos(n.self), lsa)
	tele.originates.Inc()
	// Deliberately the next-hop-less RouteChanged (not RouteChangedVia):
	// SPF is lazy, so the new next hops aren't known here, and computing
	// them eagerly just to report them would bump the ospf.spf_runs
	// counter and perturb provenance-off outputs. Schema-v2 traces mark
	// these route events "next hop unknown" by omitting oh/nh.
	n.env.RouteChanged(n.self)
	n.flood(Flood{LSA: lsa}, routing.None)
}

// flood forwards msg, a Flood, to every up neighbor except the one it
// came from. LSAs are immutable once originated (originate builds a
// fresh Neighbors slice and nothing writes to an installed one) and so
// are messages once sent, so every hop shares the same boxed message
// and backing array: a flood allocates at most where the message is
// made, never per neighbor.
func (n *Node) flood(msg sim.Message, except routing.NodeID) {
	for _, nb := range n.env.Neighbors() {
		if nb.ID == except || !n.env.LinkIsUp(nb.ID) {
			continue
		}
		n.env.Send(nb.ID, msg)
	}
}

// Handle implements sim.Protocol: install newer LSAs and re-flood them.
func (n *Node) Handle(from routing.NodeID, msg sim.Message) {
	f, ok := msg.(Flood)
	if !ok {
		return
	}
	p := n.idx.Pos(f.LSA.Origin)
	if p < 0 {
		return // no node of the network originated it
	}
	cur := n.lsdb[p] // Seq 0 when absent
	if f.LSA.Origin == n.self && cur.Seq != 0 && f.LSA.Seq > cur.Seq {
		// A self-originated LSA strictly newer than the one we installed
		// is a pre-crash incarnation's, still circulating with a higher
		// sequence number. Adopt that number and supersede it
		// (RFC 2328 §13.4), or every post-restart origination would be
		// discarded as stale. Echoes of our own current LSA (equal Seq)
		// fall through to the stale check below and stop there.
		n.seq = f.LSA.Seq
		n.originate()
		return
	}
	if f.LSA.Seq <= cur.Seq {
		tele.staleLSAs.Inc()
		return // stale or duplicate — flooding stops here
	}
	n.install(p, f.LSA)
	// An installed LSA invalidates SPF: routes toward (at least) the
	// origin may differ once recomputed. Next hops are unreported (plain
	// RouteChanged) because SPF is lazy — see originate.
	n.env.RouteChanged(f.LSA.Origin)
	n.flood(msg, from)
}

// LinkDown implements sim.Protocol: re-originate with the adjacency
// removed. Both endpoints do this, so the failure is flooded twice
// network-wide — the standard link-state cost Figure 7 measures.
func (n *Node) LinkDown(routing.NodeID) { n.originate() }

// LinkUp implements sim.Protocol: re-originate with the adjacency back.
// With Config.DatabaseExchange the node first unicasts its whole LSDB,
// in ascending origin order, to the new neighbor (RFC 2328's database
// exchange, approximated as a one-shot push) so a freshly restarted
// peer recovers the topology — and, crucially, hears its own pre-crash
// LSA and supersedes it.
func (n *Node) LinkUp(nb routing.NodeID) {
	if n.cfg.DatabaseExchange {
		for _, lsa := range n.lsdb {
			// originate() below refloods a fresh self-LSA.
			if lsa.Seq != 0 && lsa.Origin != n.self {
				n.env.Send(nb, Flood{LSA: lsa})
			}
		}
	}
	n.originate()
}

// NextHop returns this node's shortest-path next hop toward dest
// (routing.None when unreachable), computing SPF on demand. Links count
// only when both endpoint LSAs agree they are up (OSPF's two-way check).
func (n *Node) NextHop(dest routing.NodeID) routing.NodeID {
	if !n.spfOK {
		n.runSPF()
	}
	if p := n.idx.Pos(dest); p >= 0 {
		return n.spf[p]
	}
	return routing.None
}

// runSPF runs hop-count Dijkstra (BFS, since all links weigh 1) over the
// LSDB and fills the next-hop cache. A node other than self has been
// reached exactly when its next hop is set, so the table doubles as the
// visited set.
func (n *Node) runSPF() {
	tele.spfRuns.Inc()
	clear(n.spf)
	n.spfOK = true
	self := n.idx.Pos(n.self)
	queue := append(n.queue[:0], self)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		curID := n.idx.ID(cur)
		// An origin not heard from has a zero LSA: no neighbors.
		for _, nb := range n.lsdb[cur].Neighbors {
			p := n.idx.Pos(nb)
			if p == self || p < 0 || n.spf[p] != routing.None {
				continue // visited, or no node to confirm the link with
			}
			// Two-way check: the edge cur->nb counts once nb's LSA lists cur.
			if _, back := slices.BinarySearch(n.lsdb[p].Neighbors, curID); !back {
				continue
			}
			first := n.spf[cur]
			if cur == self {
				first = nb
			}
			n.spf[p] = first
			queue = append(queue, p)
		}
	}
	n.queue = queue
}
