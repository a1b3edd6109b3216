package ospf

import (
	"testing"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

func converge(t *testing.T, g *topology.Graph) (*sim.Network, map[routing.NodeID]*Node) {
	t.Helper()
	nodes := make(map[routing.NodeID]*Node)
	build := New()
	net, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build: func(env sim.Env) sim.Protocol {
			p := build(env)
			nodes[env.Self()] = p.(*Node)
			return p
		},
		DelaySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

func TestFullLSDBEverywhere(t *testing.T) {
	g, err := topogen.BRITE(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g)
	for id, n := range nodes {
		if n.LSDBSize() != g.NumNodes() {
			t.Fatalf("node %v has %d LSAs, want %d (link state floods everywhere)",
				id, n.LSDBSize(), g.NumNodes())
		}
	}
}

func TestShortestPathsIgnorePolicy(t *testing.T) {
	// 1 -peer- 2 -peer- 3: policy routing forbids 1->3, but OSPF has no
	// policies and must route it (the paper's Figure 7 explanation).
	g := topology.NewGraph(3)
	if err := g.AddEdge(1, 2, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g)
	if nh := nodes[1].NextHop(3); nh != 2 {
		t.Fatalf("OSPF next hop 1->3 = %v, want N2", nh)
	}
}

func TestNextHopOnChain(t *testing.T) {
	g, err := topogen.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g)
	if nh := nodes[1].NextHop(5); nh != 2 {
		t.Fatalf("next hop 1->5 = %v, want N2", nh)
	}
	if nh := nodes[3].NextHop(1); nh != 2 {
		t.Fatalf("next hop 3->1 = %v, want N2", nh)
	}
	if nh := nodes[1].NextHop(99); nh != routing.None {
		t.Fatalf("next hop to unknown node = %v, want None", nh)
	}
}

func TestFailureReflood(t *testing.T) {
	g, err := topogen.BRITE(30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g)
	net.ResetStats()
	e := g.Edges()[4]
	net.FailLink(e.A, e.B)
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	// Two new LSAs flooded network-wide: message count is on the order
	// of twice the directed link count.
	if st.Units == 0 {
		t.Fatal("failure must trigger flooding")
	}
	// Every node must have converged on a consistent view: the failed
	// link's endpoints no longer list each other.
	for id, n := range nodes {
		if nh := n.NextHop(e.B); id == e.A && nh == e.B {
			// Direct next hop may legitimately change; consistency is
			// checked structurally below instead.
			_ = nh
		}
	}
	// Reroute around the failure: any node that used the link finds
	// another path if one exists (BRITE m=2 is 2-connected in the seed
	// mesh region; just assert the two endpoints still reach each other).
	if nh := nodes[e.A].NextHop(e.B); nh == e.B {
		t.Fatalf("endpoint still routes directly over the failed link")
	}
}

func TestRestoreResynchronizes(t *testing.T) {
	g, err := topogen.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g)
	net.FailLink(2, 3)
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	if nh := nodes[1].NextHop(4); nh != routing.None {
		t.Fatalf("partitioned next hop = %v, want None", nh)
	}
	net.RestoreLink(2, 3)
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	if nh := nodes[1].NextHop(4); nh != 2 {
		t.Fatalf("after restore next hop 1->4 = %v, want N2", nh)
	}
}

func TestStaleLSAIgnored(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g)
	net.ResetStats()
	// Replay node 2's own current LSA at node 1: stale, must not reflood.
	n1 := nodes[1]
	n1.Handle(2, Flood{LSA: LSA{Origin: 2, Seq: 1, Neighbors: []routing.NodeID{1}}})
	if _, ok := net.Run(0); !ok {
		t.Fatal("run did not quiesce")
	}
	if st := net.Stats(); st.Units != 0 {
		t.Fatalf("stale LSA triggered %d flood units", st.Units)
	}
}

func TestLSAString(t *testing.T) {
	l := LSA{Origin: 1, Seq: 2, Neighbors: []routing.NodeID{2, 3}}
	if l.String() == "" {
		t.Fatal("LSA must render")
	}
}
