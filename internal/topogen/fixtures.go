package topogen

import (
	"fmt"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// Node names for the paper's worked example of Figure 2.
const (
	NodeA routing.NodeID = 1
	NodeB routing.NodeID = 2
	NodeC routing.NodeID = 3
	NodeD routing.NodeID = 4
)

// Figure2a builds the four-node square of the paper's Figure 2(a):
// A—B, A—C, B—D, C—D. The paper leaves relationships implicit; we make
// A the Tier-1 provider of B and C, and D a multi-homed customer of both
// B and C, which keeps every pair reachable under Gao–Rexford policies
// and reproduces the path diversity the example discusses.
func Figure2a() *topology.Graph {
	g := topology.NewGraph(4)
	mustEdge(g, NodeB, NodeA, topology.RelProvider) // A provides B
	mustEdge(g, NodeC, NodeA, topology.RelProvider) // A provides C
	mustEdge(g, NodeD, NodeB, topology.RelProvider) // B provides D
	mustEdge(g, NodeD, NodeC, topology.RelProvider) // C provides D
	return g
}

// Chain builds an n-node provider chain 1—2—…—n in which node i provides
// transit to node i+1. Every pair is reachable (pure uphill or pure
// downhill paths).
func Chain(n int) (*topology.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topogen: chain needs n >= 2, got %d", n)
	}
	g := topology.NewGraph(n)
	for i := 1; i < n; i++ {
		// Node i+1 is the customer of node i.
		if err := g.AddEdge(routing.NodeID(i), routing.NodeID(i+1), topology.RelCustomer); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Star builds an n-node star with node 1 the provider of nodes 2..n.
func Star(n int) (*topology.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topogen: star needs n >= 2, got %d", n)
	}
	g := topology.NewGraph(n)
	for i := 2; i <= n; i++ {
		if err := g.AddEdge(routing.NodeID(1), routing.NodeID(i), topology.RelCustomer); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// PeerClique builds an n-node full mesh of Tier-1 peers.
func PeerClique(n int) (*topology.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topogen: clique needs n >= 2, got %d", n)
	}
	g := topology.NewGraph(n)
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			if err := g.AddEdge(routing.NodeID(i), routing.NodeID(j), topology.RelPeer); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Tree builds a complete provider tree of the given fanout and depth:
// node 1 is the root provider; every node provides transit to its fanout
// children. depth counts edge levels, so the tree has
// (fanout^(depth+1)-1)/(fanout-1) nodes.
func Tree(fanout, depth int) (*topology.Graph, error) {
	if fanout < 1 || depth < 1 {
		return nil, fmt.Errorf("topogen: tree needs fanout >= 1 and depth >= 1, got %d, %d", fanout, depth)
	}
	g := topology.NewGraph(0)
	if err := g.AddNode(1); err != nil {
		return nil, err
	}
	next := routing.NodeID(2)
	level := []routing.NodeID{1}
	for d := 0; d < depth; d++ {
		var newLevel []routing.NodeID
		for _, parent := range level {
			for f := 0; f < fanout; f++ {
				child := next
				next++
				if err := g.AddEdge(parent, child, topology.RelCustomer); err != nil {
					return nil, err
				}
				newLevel = append(newLevel, child)
			}
		}
		level = newLevel
	}
	return g, nil
}

// AttachLeaves grafts `parts` new single-homed customer leaves under
// each host node, modeling the paper's §6.4 de-aggregation: a node that
// announces k separate sub-prefixes "can be logically split into
// multiple nodes in the topology". New node IDs are allocated after the
// current maximum. It returns the created leaf IDs.
func AttachLeaves(g *topology.Graph, hosts []routing.NodeID, parts int) ([]routing.NodeID, error) {
	if parts < 1 {
		return nil, fmt.Errorf("topogen: parts must be >= 1, got %d", parts)
	}
	next := routing.NodeID(0)
	for _, id := range g.Nodes() {
		if id > next {
			next = id
		}
	}
	next++
	leaves := make([]routing.NodeID, 0, len(hosts)*parts)
	for _, h := range hosts {
		if !g.HasNode(h) {
			return nil, fmt.Errorf("topogen: host %v not in topology", h)
		}
		for p := 0; p < parts; p++ {
			if err := g.AddEdge(h, next, topology.RelCustomer); err != nil {
				return nil, err
			}
			leaves = append(leaves, next)
			next++
		}
	}
	return leaves, nil
}

// mustEdge adds an edge that is constructed from trusted constants;
// failures are programming errors.
func mustEdge(g *topology.Graph, a, b routing.NodeID, rel topology.Relationship) {
	if err := g.AddEdge(a, b, rel); err != nil {
		panic(fmt.Sprintf("topogen: building fixture: %v", err))
	}
}
