package centaur

import (
	"fmt"
	"slices"

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

// classCases reports how neighbor b's share of its class view differs
// from the class view, read off the route table: whether a path the
// class exports contains b at its second hop or later (deep), and
// whether a node on a path containing b is also on one that does not
// (shared). kept reports that the class view exists and gives b links.
func (n *Node) classCases(b routing.NodeID) (shared, deep, kept bool) {
	nb := n.neighbor(b)
	ec := &n.classes[nb.class]
	excluded, rest := map[routing.NodeID]bool{}, map[routing.NodeID]bool{}
	for p := range n.routes {
		path := n.classPath(p, ec)
		i := slices.Index(path, b)
		deep = deep || i >= 2
		for _, hop := range path[min(1, len(path)):] {
			if i > 0 {
				excluded[hop] = true
			} else {
				rest[hop] = true
			}
		}
	}
	for hop := range excluded {
		shared = shared || rest[hop]
	}
	return shared, deep, ec.view != nil && len(ec.view.LinkInfos(nb.member)) > 0
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
