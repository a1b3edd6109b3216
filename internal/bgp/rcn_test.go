package bgp

import (
	"bytes"
	"math/rand"
	"testing"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
	"centaur/internal/trace"
)

func TestEdgeOfCanonical(t *testing.T) {
	if edgeOf(3, 1) != edgeOf(1, 3) {
		t.Fatal("edgeOf must be order-insensitive")
	}
	if edgeOf(1, 3) == edgeOf(1, 4) {
		t.Fatal("different edges must differ")
	}
}

func TestPathCrosses(t *testing.T) {
	p := routing.Path{1, 2, 3, 4}
	if !pathCrosses(p, edgeOf(3, 2)) {
		t.Fatal("consecutive pair must cross (either order)")
	}
	if pathCrosses(p, edgeOf(1, 3)) {
		t.Fatal("non-consecutive pair must not cross")
	}
	if pathCrosses(routing.Path{1}, edgeOf(1, 2)) {
		t.Fatal("single-node path crosses nothing")
	}
}

func TestRCNConvergesToSolver(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (*topology.Graph, error)
	}{
		{"brite-60", func() (*topology.Graph, error) { return topogen.BRITE(60, 2, 11) }},
		{"caida-like-80", func() (*topology.Graph, error) { return topogen.CAIDALike(80, 12) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			_, nodes := converge(t, g, Config{RCN: true})
			checkAgainstSolver(t, g, nodes)
		})
	}
}

func TestRCNFailureReconvergence(t *testing.T) {
	g := topogen.Figure2a()
	net, nodes := converge(t, g, Config{RCN: true})
	net.FailLink(topogen.NodeB, topogen.NodeD)
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	want := routing.Path{topogen.NodeA, topogen.NodeC, topogen.NodeD}
	if p := nodes[topogen.NodeA].BestPath(topogen.NodeD); !p.Equal(want) {
		t.Fatalf("after failure, A->D = %v, want %v", p, want)
	}
	net.RestoreLink(topogen.NodeB, topogen.NodeD)
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	checkAgainstSolver(t, g, nodes)
}

func TestRCNFlapStorm(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{RCN: true})
	e := g.Edges()[3]
	for i := 0; i < 5; i++ {
		net.FailLink(e.A, e.B)
		net.RestoreLink(e.A, e.B)
		if i%2 == 0 {
			if _, _, err := net.RunToConvergence(50_000_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	checkAgainstSolver(t, g, nodes)
}

// TestRCNSuppressesWithdrawalStorms: root cause notification's
// documented win is the disconnecting-failure case — a destination
// becomes unreachable and plain BGP explores every stale alternative
// before giving up (the classic Tdown withdrawal storm), while RCN
// invalidates them all at once. The test grafts single-homed stubs onto
// a BRITE topology and fails their only links.
//
// (For non-disconnecting failures with fast implicit replacements, eager
// invalidation can cost extra transitions — a trade-off recorded in
// EXPERIMENTS.md; Centaur avoids it because its root cause notice
// travels together with the replacement links.)
func TestRCNSuppressesWithdrawalStorms(t *testing.T) {
	g, err := topogen.BRITE(100, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Graft five single-homed stubs under mid-degree providers: failing
	// their links disconnects the stub's prefix.
	type stubLink struct{ provider, stub routing.NodeID }
	var stubs []stubLink
	nodes := g.Nodes()
	next := nodes[len(nodes)-1] + 1
	for i := 0; i < 5; i++ {
		provider := nodes[10+7*i]
		if err := g.AddEdge(provider, next, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
		stubs = append(stubs, stubLink{provider: provider, stub: next})
		next++
	}
	downUnits := func(cfg Config) int64 {
		net, _ := converge(t, g, cfg)
		var total int64
		for _, s := range stubs {
			net.ResetStats()
			net.FailLink(s.provider, s.stub)
			if _, _, err := net.RunToConvergence(100_000_000); err != nil {
				t.Fatal(err)
			}
			total += net.Stats().Units
			net.RestoreLink(s.provider, s.stub)
			if _, _, err := net.RunToConvergence(100_000_000); err != nil {
				t.Fatal(err)
			}
		}
		return total
	}
	plain := downUnits(Config{})
	rcn := downUnits(Config{RCN: true})
	if rcn >= plain {
		t.Fatalf("RCN did not suppress the withdrawal storm: %d vs plain %d", rcn, plain)
	}
}

// TestRCNMaskLiftsOnAnnouncement: an announced path crossing a masked
// link is evidence of recovery and must lift the mask.
func TestRCNMaskLiftsOnAnnouncement(t *testing.T) {
	g := topogen.Figure2a()
	_, nodes := converge(t, g, Config{RCN: true})
	a := nodes[topogen.NodeA]
	// Third-party notice: B-D failed (it has not actually).
	a.Handle(topogen.NodeC, Update{
		Dest:        topogen.NodeD,
		Path:        routing.Path{topogen.NodeC, topogen.NodeD},
		FailedLinks: []routing.Link{{From: topogen.NodeB, To: topogen.NodeD}},
	})
	// A must have switched its D route away from the masked B-D link.
	if p := a.BestPath(topogen.NodeD); pathCrosses(p, edgeOf(topogen.NodeB, topogen.NodeD)) {
		t.Fatalf("A still routes over the masked link: %v", p)
	}
	// B re-announces its direct path, which crosses B-D: mask lifts and
	// the original (tie-break preferred) route returns.
	a.Handle(topogen.NodeB, Update{
		Dest: topogen.NodeD,
		Path: routing.Path{topogen.NodeB, topogen.NodeD},
	})
	want := routing.Path{topogen.NodeA, topogen.NodeB, topogen.NodeD}
	if p := a.BestPath(topogen.NodeD); !p.Equal(want) {
		t.Fatalf("mask did not lift: A->D = %v, want %v", p, want)
	}
}

// TestRCNPropagates: the notice must travel with ordinary updates so
// remote nodes also skip stale paths. Masks expire after convergence by
// design, so the test taps the wire and checks node 1 — two hops from
// the failure — received the annotation.
func TestRCNPropagates(t *testing.T) {
	g, err := topogen.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	var node1Notices int
	build := New(Config{RCN: true})
	net, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build: func(env sim.Env) sim.Protocol {
			inner := build(env)
			if env.Self() != 1 {
				return inner
			}
			return &noticeTap{Protocol: inner, count: &node1Notices}
		},
		DelaySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	net.FailLink(3, 4)
	if _, _, err := net.RunToConvergence(10_000_000); err != nil {
		t.Fatal(err)
	}
	if node1Notices == 0 {
		t.Fatal("root cause never reached node 1")
	}
}

// noticeTap counts RCN annotations delivered to the wrapped node.
type noticeTap struct {
	sim.Protocol
	count *int
}

func (n *noticeTap) Handle(from routing.NodeID, msg sim.Message) {
	if u, ok := msg.(Update); ok && len(u.FailedLinks) > 0 {
		*n.count++
	}
	n.Protocol.Handle(from, msg)
}

// TestRCNTraceIsDeterministic runs one BGP-RCN flip series twice and
// requires byte-identical event traces. The order in which a lifted or
// expired mask re-decides its destinations fixes the send order, and
// with it every later sequence number; it once followed a Go map.
func TestRCNTraceIsDeterministic(t *testing.T) {
	g, err := topogen.CAIDALike(80, 3)
	if err != nil {
		t.Fatal(err)
	}
	series := func() []byte {
		tc := trace.NewCollector()
		net, err := sim.NewNetwork(sim.Config{
			Topology:  g,
			Build:     New(Config{Policy: policy.GaoRexford{TieBreak: policy.TieHashed}, RCN: true}),
			DelaySeed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Observe(tc.Chunk("rcn", 3).Observe)
		quiesce := func() {
			if _, _, err := net.RunToConvergence(50_000_000); err != nil {
				t.Fatal(err)
			}
		}
		quiesce()
		edges := g.Edges()
		rng := rand.New(rand.NewSource(3))
		for flip := 0; flip < 30; flip++ {
			e := edges[rng.Intn(len(edges))]
			net.FailLink(e.A, e.B)
			quiesce()
			net.RestoreLink(e.A, e.B)
			quiesce()
		}
		return tc.Bytes()
	}
	first := series()
	for run := 0; run < 2; run++ {
		if again := series(); !bytes.Equal(first, again) {
			t.Fatalf("run %d: trace of %d bytes differs from the first run's %d", run+2, len(again), len(first))
		}
	}
}
