// BGP-RCN (Root Cause Notification) support, after Pei et al.,
// "BGP-RCN: improving BGP convergence through root cause notification"
// (the paper's reference [15]). RCN piggybacks the identity of the
// failed link onto ordinary path-vector updates; receivers then stop
// considering — and stop exploring — any Adj-RIB-In path that crosses
// the failed link, which is the same mechanism Centaur gets natively
// from its link-level announcements (§3.1). The reproduction includes it
// as an intermediate baseline between plain BGP and Centaur.
//
// Masking follows the same consistency rules as Centaur's
// (internal/centaur): Adj-RIBs-In are never mutated by third-party
// notices; masked candidates are skipped at decision time; a mask lifts
// when a newly announced path crosses the link again, when the local
// adjacency recovers, or after the mask TTL.
package bgp

import (
	"slices"
	"time"

	"centaur/internal/routing"
)

// edgeKey is the undirected identity of a link inside an AS path.
type edgeKey struct{ lo, hi routing.NodeID }

func edgeOf(a, b routing.NodeID) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{lo: a, hi: b}
}

// pathCrosses reports whether path p traverses the undirected edge e.
func pathCrosses(p routing.Path, e edgeKey) bool {
	for i := 0; i+1 < len(p); i++ {
		if edgeOf(p[i], p[i+1]) == e {
			return true
		}
	}
	return false
}

// maskEdge suppresses every candidate crossing the failed link and
// schedules the mask's expiry.
func (n *Node) maskEdge(e edgeKey) {
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
func (n *Node) unmaskEdge(e edgeKey) {
	for i := range n.peers {
		p := &n.peers[i]
		p.rcn = slices.DeleteFunc(p.rcn, func(q rcnNotice) bool {
			return edgeOf(q.link.From, q.link.To) == e
		})
	}
	if _, ok := n.failed[e]; !ok {
		return
	}
	delete(n.failed, e)
	n.redecideCrossing(e)
}

// masked reports whether the candidate learned from nb, whose announced
// path is p, crosses a masked link — the self–nb hop included, which p
// itself (stored as announced) does not carry.
func (n *Node) masked(nb routing.NodeID, p routing.Path) bool {
	if len(n.failed) == 0 {
		return false
	}
	if _, ok := n.failed[edgeOf(n.self, nb)]; ok {
		return true
	}
	for i := 0; i+1 < len(p); i++ {
		if _, ok := n.failed[edgeOf(p[i], p[i+1])]; ok {
			return true
		}
	}
	return false
}

// redecideCrossing re-runs the decision process for every destination
// that has a candidate crossing e (its eligibility just changed), in
// ascending destination order: the order fixes the send order and with
// it the run's sequence numbers, so it must not depend on a map.
func (n *Node) redecideCrossing(e edgeKey) {
	for d := 0; d < len(n.rows); d++ {
		for _, in := range n.rows[d].in {
			if edgeOf(n.self, n.nbrs[in.slot]) == e || pathCrosses(in.path, e) {
				n.runDecision(n.idx.ID(d))
				break
			}
		}
	}
}
