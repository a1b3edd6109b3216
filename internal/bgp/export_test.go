package bgp

import (
	"fmt"

	"centaur/internal/policy"
	"centaur/internal/routing"
)

// Accessors only tests read.

// BestClass returns the class of the node's selected route to dest (0
// when it has no route).
func (n *Node) BestClass(dest routing.NodeID) policy.RouteClass {
	return n.bestOf(dest).Class
}

// Routes returns a copy of the node's Loc-RIB keyed by destination.
func (n *Node) Routes() map[routing.NodeID]routing.Path {
	out := make(map[routing.NodeID]routing.Path)
	for d := range n.rows {
		if p := n.rows[d].best.Path; len(p) > 0 {
			out[n.idx.ID(d)] = p.Clone()
		}
	}
	return out
}

// audit holds every Loc-RIB entry to its definition: it ranks each
// destination's own route and every Adj-RIB-In entry (minus what an RCN
// mask suppresses) and returns an error for the first destination whose
// installed route is not the winner. Run after every event
// (prototest.Audit), it checks that each decision considered everything
// its event changed.
func (n *Node) audit() error {
	for d := range n.rows {
		dest, r := n.idx.ID(d), &n.rows[d]
		var cands []policy.Candidate
		if dest == n.self {
			cands = append(cands, policy.Candidate{Path: routing.Path{n.self}, Class: policy.ClassOwn})
		}
		for _, e := range r.in {
			if n.cfg.RCN && n.masked(n.nbrs[e.slot], e.path) {
				continue
			}
			cands = append(cands, policy.Candidate{Path: e.path, Class: policy.ClassOf(n.peers[e.slot].rel), Via: n.nbrs[e.slot]})
		}
		want, got := policy.Best(n.pol, n.self, cands), r.best
		if want.Via != routing.None {
			want.Path = want.Path.Prepend(n.self)
		}
		if got.Via != want.Via || !got.Path.Equal(want.Path) {
			return fmt.Errorf("destination %v: installed %v via %v, ranking every candidate gives %v via %v",
				dest, got.Path, got.Via, want.Path, want.Via)
		}
	}
	return nil
}
