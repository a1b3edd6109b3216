package centaur

import (
	"fmt"

	"centaur/internal/policy"
	"centaur/internal/routing"
)

// Accessors only tests read.

// BestClass returns the class of the selected route to dest (0 if none).
func (n *Node) BestClass(dest routing.NodeID) policy.RouteClass {
	if dest == n.self {
		return policy.ClassOwn
	}
	return n.route(dest).class
}

// audit holds every installed route to its definition: it re-derives
// every destination from every neighbor graph, uncached and under the
// current root-cause mask, ranks the offers over all neighbors, and
// returns an error for the first destination whose installed route is
// not the winner. Run after every event (prototest.Audit), it checks
// that each round decided everything its event changed.
func (n *Node) audit() error {
	for p := range n.routes {
		dest := n.idx.ID(p)
		if dest == n.self {
			continue
		}
		var best policy.Candidate
		for i, b := range n.nbrList {
			g := n.nbrs[i].graph
			if g == nil || !g.IsDest(dest) {
				continue
			}
			path, ok := g.DerivePathWith(dest, n.isFailed)
			if !ok || !n.pol.Accept(n.self, b, path) {
				continue
			}
			c := policy.Candidate{Path: path, Class: policy.ClassOf(n.nbrs[i].rel), Via: b}
			if len(best.Path) == 0 || n.pol.Better(n.self, c, best) {
				best = c
			}
		}
		r := n.routes[p]
		if len(best.Path) == 0 && r.path == nil {
			continue
		}
		if len(best.Path) == 0 || r.path == nil || r.via != best.Via || !r.path[1:].Equal(best.Path) {
			return fmt.Errorf("destination %v: installed %v via %v, ranking every neighbor gives %v via %v",
				dest, r.path, r.via, best.Path, best.Via)
		}
	}
	return nil
}
