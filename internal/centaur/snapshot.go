package centaur

import (
	"maps"
	"slices"

	"centaur/internal/sim"
)

var _ sim.Snapshotter = (*Node)(nil)

// ForkProtocol implements sim.Snapshotter: an independent deep copy of
// the node's converged state, bound to the fork's env. The receiver is
// only read — many forks are taken concurrently from one checkpointed
// template, and the race detector gates this in CI.
//
// Copy depth follows the package's mutation contract: cfg, pol, nbrList
// and the classes' member lists are construction-only and shared;
// routing.Path values are immutable once installed, so the route table
// and the derive caches are copied but their path slices are not; the
// neighbor P-graphs and the class views are live mutable, so
// deep-cloned, each class view once (Graph.Clone / ClassView.Clone,
// in-place-mutating Permission Lists included; there is no local view to
// clone, see LocalGraph). The derive caches are copied as
// well — not for correctness (each entry is a pure function of the
// neighbor's P-graph) but so a fork's cache hit pattern is deterministic
// rather than dependent on which template the scheduler checkpointed.
// Mask TTL timers need no transfer: a quiesced network has no pending
// timer events and each firing removes its own mask generation before
// quiescence is possible.
func (n *Node) ForkProtocol(env sim.Env) sim.Protocol {
	out := &Node{
		cfg:           n.cfg,
		pol:           n.pol,
		env:           env,
		self:          n.self,
		idx:           n.idx,
		nbrList:       n.nbrList,
		nbrs:          slices.Clone(n.nbrs),
		classes:       slices.Clone(n.classes),
		routes:        slices.Clone(n.routes),
		pendingFailed: slices.Clone(n.pendingFailed),
		failed:        maps.Clone(n.failed),
		failedGen:     n.failedGen,
		noted:         maps.Clone(n.noted),
		notedGen:      n.notedGen,
		stamp:         make([]uint32, len(n.stamp)),
	}
	for c := range out.classes {
		if ec := &out.classes[c]; ec.view != nil {
			ec.view = ec.view.Clone()
		}
	}
	for i := range out.nbrs {
		nb := &out.nbrs[i]
		if nb.graph != nil {
			nb.graph = nb.graph.Clone()
			// Graph.Clone does not carry the false-positive observer — it
			// closes over the owning node; the fork registers its own.
			out.installFPObserver(nb.graph)
		}
		// A down link's spare graph is storage, not state: forks taken
		// concurrently from one template must not share it, and copying
		// it would buy nothing a fresh graph does not.
		nb.spare = nil
		nb.derived = nb.derived.Clone()
		nb.injected = nil // like adv, adversarial state is not forked
	}
	return out
}

// SnapshotBytes implements sim.Snapshotter: a rough heap estimate of what
// ForkProtocol copies, mostly the per-neighbor P-graphs and the class
// views.
func (n *Node) SnapshotBytes() int {
	const word = 8
	b := len(n.routes)*5*word + len(n.failed)*6*word
	for _, r := range n.routes {
		b += len(r.path) * word / 2
	}
	for i := range n.nbrs {
		nb := &n.nbrs[i]
		if nb.graph != nil {
			b += nb.graph.ApproxMemBytes()
		}
		b += nb.derived.Len() * 3 * word
	}
	for c := range n.classes {
		if v := n.classes[c].view; v != nil {
			b += v.ApproxMemBytes()
		}
	}
	return b
}
