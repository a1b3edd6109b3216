package centaur

import (
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
