package prototest

import (
	"math/rand"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// SparseGraph returns a small topology with one far-away ID, so a table
// indexed by NodeID is shown correct across the gap, not only fast.
func SparseGraph(t testing.TB) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(4)
	for _, e := range []struct {
		a, b routing.NodeID
		rel  topology.Relationship // b as a sees it
	}{
		{1, 2, topology.RelCustomer},
		{1, 3, topology.RelCustomer},
		{2, 3, topology.RelPeer},
		{2, 70000, topology.RelCustomer},
		{3, 70000, topology.RelCustomer},
	} {
		if err := g.AddEdge(e.a, e.b, e.rel); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// Flaps is a seeded failure schedule: 25 rounds, each failing up to
// MaxDown links at once (and, every CrashEvery-th round, crashing a
// node), then either quiescing or running only a few hundred events —
// so that restores land mid-convergence, inside mask TTLs and MRAI
// windows — before restoring everything and quiescing.
type Flaps struct {
	MaxDown    int    // links failed together, at most
	CrashEvery int    // 0: no node crashes
	Settled    func() // called after every quiescence, if set
}

// Run drives the schedule on net, whose topology is g, from a cold start.
func (f Flaps) Run(t testing.TB, net *sim.Network, g *topology.Graph) {
	t.Helper()
	quiesce := func() {
		if _, _, err := net.RunToConvergence(5_000_000); err != nil {
			t.Fatal(err)
		}
		if f.Settled != nil {
			f.Settled()
		}
	}
	quiesce()
	rng := rand.New(rand.NewSource(5))
	edges, nodes := g.Edges(), g.Nodes()
	for round := 0; round < 25; round++ {
		var down []topology.Edge
		for k := 1 + rng.Intn(f.MaxDown); k > 0; k-- {
			e := edges[rng.Intn(len(edges))]
			if net.LinkIsUp(e.A, e.B) {
				net.FailLink(e.A, e.B)
				down = append(down, e)
			}
		}
		crashed := routing.None
		if f.CrashEvery > 0 && round%f.CrashEvery == f.CrashEvery-1 {
			crashed = nodes[rng.Intn(len(nodes))]
			net.CrashNode(crashed)
		}
		if rng.Intn(2) == 0 {
			quiesce()
		} else {
			net.Run(int64(rng.Intn(300)))
		}
		for _, e := range down {
			net.RestoreLink(e.A, e.B)
		}
		if crashed != routing.None {
			net.RestartNode(crashed)
		}
		quiesce()
	}
}

// StubEnv is a sim.Env that counts sends and allocates nothing, so
// testing.AllocsPerRun sees a node's allocations alone. Every link is up.
type StubEnv struct {
	ID    routing.NodeID
	Nbrs  []topology.Neighbor
	Sends int
}

// Hub returns the environment of node 1 with neighbors 2..k+1, all of
// relationship rel.
func Hub(k int, rel topology.Relationship) *StubEnv {
	env := &StubEnv{ID: 1}
	for id := routing.NodeID(2); int(id) <= k+1; id++ {
		env.Nbrs = append(env.Nbrs, topology.Neighbor{ID: id, Rel: rel})
	}
	return env
}

func (e *StubEnv) Self() routing.NodeID             { return e.ID }
func (e *StubEnv) Now() time.Duration               { return 0 }
func (e *StubEnv) Send(routing.NodeID, sim.Message) { e.Sends++ }
func (e *StubEnv) After(time.Duration, func())      {}
func (e *StubEnv) Neighbors() []topology.Neighbor   { return e.Nbrs }
func (e *StubEnv) LinkIsUp(routing.NodeID) bool     { return true }
func (e *StubEnv) RouteChanged(routing.NodeID)      {}

// FlipBench measures one link failed, quiesced, restored and quiesced
// on a network of build's nodes converged on g.
func FlipBench(b *testing.B, g *topology.Graph, build sim.Builder, delaySeed int64) {
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: delaySeed})
	if err != nil {
		b.Fatal(err)
	}
	quiesce := func() {
		if _, _, err := net.RunToConvergence(500_000_000); err != nil {
			b.Fatal(err)
		}
	}
	quiesce()
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		net.FailLink(e.A, e.B)
		quiesce()
		net.RestoreLink(e.A, e.B)
		quiesce()
	}
}
