package bgp

import (
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
