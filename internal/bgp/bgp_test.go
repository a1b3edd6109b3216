package bgp

import (
	"math/rand"
	"testing"
	"time"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// converge builds a network of BGP nodes over g and runs it to
// quiescence, returning the network and the per-node protocol handles.
func converge(t *testing.T, g *topology.Graph, cfg Config) (*sim.Network, map[routing.NodeID]*Node) {
	t.Helper()
	nodes := make(map[routing.NodeID]*Node)
	build := New(cfg)
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

// checkAgainstSolver asserts every node's converged best path equals the
// static ground truth (DESIGN.md invariant 3).
func checkAgainstSolver(t *testing.T, g *topology.Graph, nodes map[routing.NodeID]*Node) {
	t.Helper()
	s, err := solver.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Nodes() {
			want, _ := s.Path(from, to)
			got := nodes[from].BestPath(to)
			if !got.Equal(want) {
				t.Fatalf("BGP path %v->%v = %v, solver says %v", from, to, got, want)
			}
		}
	}
}

func TestConvergesToSolverChain(t *testing.T) {
	g, err := topogen.Chain(5)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{})
	checkAgainstSolver(t, g, nodes)
}

func TestConvergesToSolverFigure2a(t *testing.T) {
	g := topogen.Figure2a()
	_, nodes := converge(t, g, Config{})
	checkAgainstSolver(t, g, nodes)
}

func TestConvergesToSolverGenerated(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() (*topology.Graph, error)
	}{
		{"brite-60", func() (*topology.Graph, error) { return topogen.BRITE(60, 2, 11) }},
		{"caida-like-80", func() (*topology.Graph, error) { return topogen.CAIDALike(80, 12) }},
		{"hetop-like-80", func() (*topology.Graph, error) { return topogen.HeTopLike(80, 13) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.make()
			if err != nil {
				t.Fatal(err)
			}
			_, nodes := converge(t, g, Config{})
			checkAgainstSolver(t, g, nodes)
		})
	}
}

func TestExportFiltering(t *testing.T) {
	// 1 -peer- 2 -peer- 3: node 2 must not re-export peer routes to the
	// other peer, so 1 and 3 never learn each other.
	g := topology.NewGraph(3)
	if err := g.AddEdge(1, 2, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{})
	if p := nodes[1].BestPath(3); p != nil {
		t.Fatalf("node 1 must not reach 3 across two peer hops, got %v", p)
	}
	if p := nodes[1].BestPath(2); !p.Equal(routing.Path{1, 2}) {
		t.Fatalf("node 1 must reach its peer directly, got %v", p)
	}
}

func TestLinkFailureReconvergence(t *testing.T) {
	// Figure 2(a): fail B–D; A must fall back to <A,C,D>.
	g := topogen.Figure2a()
	net, nodes := converge(t, g, Config{})
	net.FailLink(topogen.NodeB, topogen.NodeD)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	want := routing.Path{topogen.NodeA, topogen.NodeC, topogen.NodeD}
	if p := nodes[topogen.NodeA].BestPath(topogen.NodeD); !p.Equal(want) {
		t.Fatalf("after failure, path A->D = %v, want %v", p, want)
	}
	// The converged state must equal a cold start on the failed topology.
	failed := g.Clone()
	failed.RemoveEdge(topogen.NodeB, topogen.NodeD)
	checkAgainstSolver(t, failed, nodes)
}

func TestLinkRestoreReconvergence(t *testing.T) {
	g := topogen.Figure2a()
	net, nodes := converge(t, g, Config{})
	net.FailLink(topogen.NodeB, topogen.NodeD)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	net.RestoreLink(topogen.NodeB, topogen.NodeD)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	checkAgainstSolver(t, g, nodes)
}

func TestPartitionWithdrawsRoutes(t *testing.T) {
	// Failing the only link of a chain must withdraw everything across
	// the cut.
	g, err := topogen.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{})
	net.FailLink(2, 3)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	if p := nodes[1].BestPath(4); p != nil {
		t.Fatalf("node 1 must lose its route to 4 after the partition, got %v", p)
	}
	if p := nodes[1].BestPath(2); p == nil {
		t.Fatal("node 1 must keep its route to 2")
	}
}

func TestMRAIStillConverges(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{MRAI: 30 * time.Millisecond})
	checkAgainstSolver(t, g, nodes)
}

func TestMRAIReducesMessageCount(t *testing.T) {
	g, err := topogen.BRITE(80, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) int64 {
		net, _ := converge(t, g, cfg)
		return net.Stats().Units
	}
	plain := run(Config{})
	batched := run(Config{MRAI: 50 * time.Millisecond})
	if batched > plain {
		t.Fatalf("MRAI should suppress redundant updates: %d (mrai) vs %d (plain)", batched, plain)
	}
}

func TestRoutesAccessors(t *testing.T) {
	g := topogen.Figure2a()
	_, nodes := converge(t, g, Config{})
	n := nodes[topogen.NodeA]
	routes := n.Routes()
	if len(routes) != 4 { // A itself plus B, C, D
		t.Fatalf("Routes returned %d entries, want 4", len(routes))
	}
	if got := n.BestClass(topogen.NodeB); got != policy.ClassCustomer {
		t.Fatalf("BestClass(A->B) = %v, want customer", got)
	}
	if got := n.BestClass(topogen.NodeA); got != policy.ClassOwn {
		t.Fatalf("BestClass(A->A) = %v, want own", got)
	}
	// Mutating the copy must not corrupt protocol state.
	routes[topogen.NodeB][0] = 99
	if p := n.BestPath(topogen.NodeB); p[0] != topogen.NodeA {
		t.Fatal("Routes must return defensive copies")
	}
}

func TestUpdateStringForms(t *testing.T) {
	w := Update{Dest: 3}
	if w.String() == "" || w.Units() != 1 || w.Kind() != "bgp.update" {
		t.Fatalf("withdraw rendering/accounting broken: %q", w.String())
	}
	a := Update{Dest: 3, Path: routing.Path{1, 2, 3}}
	if a.String() == w.String() {
		t.Fatal("announce and withdraw must render differently")
	}
}

// scan is find's reference: the first entry at or above slot, by a
// linear walk.
func scan(es []ribEntry, slot int) (int, bool) {
	for i, e := range es {
		if e.slot >= slot {
			return i, e.slot == slot
		}
	}
	return len(es), false
}

// TestFindMatchesScan checks find, and seek from every cursor it may be
// handed, against a linear scan on random slot lists shorter and longer
// than findScanMax, for every slot present and every gap around them.
func TestFindMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 4*findScanMax; n++ {
		for trial := 0; trial < 20; trial++ {
			var es []ribEntry
			for slot := 0; len(es) < n; slot++ {
				if rng.Intn(3) == 0 {
					es = append(es, ribEntry{slot: slot})
				}
			}
			top := 0
			if n > 0 {
				top = es[n-1].slot + 1
			}
			for slot := -1; slot <= top; slot++ {
				wi, wok := scan(es, slot)
				if i, ok := find(es, slot); i != wi || ok != wok {
					t.Fatalf("len %d, slot %d: find (%d, %v), scan (%d, %v)", n, slot, i, ok, wi, wok)
				}
				for from := 0; from <= wi; from++ {
					if i, ok := seek(es, slot, from); i != wi || ok != wok {
						t.Fatalf("len %d, slot %d from %d: seek (%d, %v), scan (%d, %v)", n, slot, from, i, ok, wi, wok)
					}
				}
			}
		}
	}
}
