package invariant_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/invariant"
	"centaur/internal/ospf"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

func converge(t *testing.T, g *topology.Graph, build sim.Builder) *sim.Network {
	t.Helper()
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	return net
}

func solve(t *testing.T, g *topology.Graph) *solver.Solution {
	t.Helper()
	sol, err := solver.Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestConvergedProtocolsPassAllChecks(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, g)
	for name, build := range map[string]sim.Builder{
		"bgp":     bgp.New(bgp.Config{}),
		"centaur": centaur.New(centaur.Config{}),
		"ospf":    ospf.New(),
	} {
		t.Run(name, func(t *testing.T) {
			net := converge(t, g, build)
			if vs := invariant.Check(net, sol); len(vs) != 0 {
				t.Fatalf("%d violations on a clean convergence, first: %v", len(vs), vs[0])
			}
		})
	}
}

func TestCheckPeelsReliableAdapter(t *testing.T) {
	g, err := topogen.BRITE(20, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, g)
	net := converge(t, g, sim.Reliable(bgp.New(bgp.Config{}), sim.ReliableConfig{}))
	if vs := invariant.Check(net, sol); len(vs) != 0 {
		t.Fatalf("%d violations through the adapter, first: %v", len(vs), vs[0])
	}
	if _, ok := invariant.Unwrap(net.Node(g.Nodes()[0])).(*bgp.Node); !ok {
		t.Fatal("Unwrap must reach the bgp node through the adapter")
	}
}

// TestCrashRecoveryReconverges is the crash-recovery contract for all
// three protocols: crash a converged node (full protocol-state wipe),
// restart it, and the network must reconverge to the solver ground
// truth. OSPF needs DatabaseExchange — without it a restarted router
// has an empty LSDB that nothing refloods, and its stale pre-crash LSA
// outlives it.
func TestCrashRecoveryReconverges(t *testing.T) {
	g, err := topogen.BRITE(30, 2, 23)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, g)
	victim := g.Nodes()[len(g.Nodes())/2]
	for name, build := range map[string]sim.Builder{
		"bgp":     bgp.New(bgp.Config{}),
		"centaur": centaur.New(centaur.Config{}),
		"ospf":    ospf.NewWithConfig(ospf.Config{DatabaseExchange: true}),
	} {
		t.Run(name, func(t *testing.T) {
			net := converge(t, g, build)
			net.Schedule(0, func() {
				if !net.CrashNode(victim) {
					t.Error("crash must apply")
				}
			})
			if _, _, err := net.RunToConvergence(50_000_000); err != nil {
				t.Fatalf("convergence after crash: %v", err)
			}
			net.Schedule(0, func() {
				if !net.RestartNode(victim) {
					t.Error("restart must apply")
				}
			})
			if _, _, err := net.RunToConvergence(50_000_000); err != nil {
				t.Fatalf("convergence after restart: %v", err)
			}
			if vs := invariant.Check(net, sol); len(vs) != 0 {
				t.Fatalf("%d violations after crash recovery, first: %v", len(vs), vs[0])
			}
		})
	}
}

// liarNode claims a fixed wrong path for every destination.
type liarNode struct {
	self routing.NodeID
	via  routing.NodeID
}

func (l *liarNode) Start(sim.Env)                      {}
func (l *liarNode) Handle(routing.NodeID, sim.Message) {}
func (l *liarNode) LinkDown(routing.NodeID)            {}
func (l *liarNode) LinkUp(routing.NodeID)              {}
func (l *liarNode) BestPath(d routing.NodeID) routing.Path {
	if d == l.self {
		return routing.Path{l.self}
	}
	return routing.Path{l.self, l.via, d}
}

func TestCorruptRIBIsDetected(t *testing.T) {
	g, err := topogen.Chain(4) // 1-2-3-4
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, g)
	net, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build:    func(env sim.Env) sim.Protocol { return &liarNode{self: env.Self(), via: 2} },
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	vs := invariant.Check(net, sol)
	if len(vs) == 0 {
		t.Fatal("fabricated paths must be flagged")
	}
	var got []string
	for _, v := range vs {
		if v.String() == "" || !strings.Contains(v.String(), v.Kind) {
			t.Fatalf("violation renders badly: %q", v.String())
		}
		got = append(got, fmt.Sprintf("%s %v>%v", v.Kind, v.Node, v.Dest))
	}
	// Every node claims self-2-dest. That is right only for 1>3 and 3>1;
	// every other (node, dest) pair is a mismatch plus a loop (2 twice)
	// or a valley (a link the chain lacks), and each pair is reported,
	// so a check that stops at a node's first bad destination fails.
	want := []string{
		"rib-mismatch N1>N2", "loop N1>N2", "rib-mismatch N1>N4", "valley N1>N4",
		"rib-mismatch N2>N1", "loop N2>N1", "rib-mismatch N2>N3", "loop N2>N3",
		"rib-mismatch N2>N4", "loop N2>N4",
		"rib-mismatch N3>N2", "loop N3>N2", "rib-mismatch N3>N4", "valley N3>N4",
		"rib-mismatch N4>N1", "valley N4>N1", "rib-mismatch N4>N2", "loop N4>N2",
		"rib-mismatch N4>N3", "valley N4>N3",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("violations = %q\nwant %q", got, want)
	}
}

// noRIBNode exposes nothing.
type noRIBNode struct{}

func (noRIBNode) Start(sim.Env)                      {}
func (noRIBNode) Handle(routing.NodeID, sim.Message) {}
func (noRIBNode) LinkDown(routing.NodeID)            {}
func (noRIBNode) LinkUp(routing.NodeID)              {}

func TestNoRIBIsReported(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	sol := solve(t, g)
	net, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build:    func(sim.Env) sim.Protocol { return noRIBNode{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	vs := invariant.Check(net, sol)
	if len(vs) != 2 || vs[0].Kind != "no-rib" {
		t.Fatalf("want one no-rib violation per node, got %v", vs)
	}
}
