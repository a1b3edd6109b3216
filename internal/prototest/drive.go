package prototest

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// farID is SparseGraph's far-away node ID, near the top of the 32-bit
// ID space as real AS numbers can be.
const farID routing.NodeID = 4_200_000_000

// SparseGraph returns a small topology with one far-away ID (farID), so
// the per-destination tables are shown correct across the gap and sized
// by the node count, not by the highest ID.
func SparseGraph(t testing.TB) *topology.Graph { return sparse(t, farID) }

// denseGraph returns SparseGraph relabelled densely: farID becomes 4.
func denseGraph(t testing.TB) *topology.Graph { return sparse(t, 4) }

// sparse builds SparseGraph's shape with far as its fourth node.
func sparse(t testing.TB, far routing.NodeID) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(4)
	for _, e := range []struct {
		a, b routing.NodeID
		rel  topology.Relationship // b as a sees it
	}{
		{1, 2, topology.RelCustomer},
		{1, 3, topology.RelCustomer},
		{2, 3, topology.RelPeer},
		{2, far, topology.RelCustomer},
		{3, far, topology.RelCustomer},
	} {
		if err := g.AddEdge(e.a, e.b, e.rel); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// SparseAllocatesLikeDense cold-starts SparseGraph and denseGraph under
// build and fails unless the two allocate the same bytes to four
// significant digits (half a unit of the fourth digit either way; the
// runtime's own allocations make the mean wobble by a few bytes): every
// per-destination table is sized by the node count, not by the highest
// ID.
func SparseAllocatesLikeDense(t *testing.T, build sim.Builder) {
	t.Helper()
	_, sparse := ColdStart(t, SparseGraph(t), build, 20)
	_, dense := ColdStart(t, denseGraph(t), build, 20)
	t.Logf("cold start: sparse IDs %.0f B, dense IDs %.0f B", sparse, dense)
	if math.Abs(sparse-dense) > 5e-4*dense {
		t.Fatalf("sparse IDs allocate %.0f B per cold start, their dense relabelling %.0f B", sparse, dense)
	}
}

// ColdStart returns the mean number of heap allocations and of bytes
// allocated by one cold start of build on g to quiescence, network
// construction included, over runs runs after one warm-up. Like
// testing.AllocsPerRun it measures at GOMAXPROCS 1.
func ColdStart(t testing.TB, g *topology.Graph, build sim.Builder, runs int) (allocs, bytes float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := net.RunToConvergence(500_000_000); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
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
	Idx   *topology.Index
	Sends int
}

// HubIDs is the size of Hub's index: nodes 1..HubIDs exist, so a test
// can announce destinations beyond the hub's neighbors.
const HubIDs = 128

// Hub returns the environment of node 1 with neighbors 2..k+1, all of
// relationship rel, in a network of nodes 1..HubIDs.
func Hub(k int, rel topology.Relationship) *StubEnv {
	env := &StubEnv{ID: 1}
	for id := routing.NodeID(2); int(id) <= k+1; id++ {
		env.Nbrs = append(env.Nbrs, topology.Neighbor{ID: id, Rel: rel})
	}
	g := topology.NewGraph(HubIDs)
	for id := routing.NodeID(1); id <= HubIDs; id++ {
		g.AddNode(id) // errs only for routing.None
	}
	env.Idx = topology.NewIndex(g)
	return env
}

func (e *StubEnv) Self() routing.NodeID                   { return e.ID }
func (e *StubEnv) Now() time.Duration                     { return 0 }
func (e *StubEnv) Send(routing.NodeID, sim.Message)       { e.Sends++ }
func (e *StubEnv) After(time.Duration, func())            {}
func (e *StubEnv) Neighbors() []topology.Neighbor         { return e.Nbrs }
func (e *StubEnv) LinkIsUp(routing.NodeID) bool           { return true }
func (e *StubEnv) RouteChanged(routing.NodeID)            {}
func (e *StubEnv) RouteChangedVia(_, _, _ routing.NodeID) {}
func (e *StubEnv) Emit(string, routing.NodeID)            {}
func (e *StubEnv) Index() *topology.Index                 { return e.Idx }

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
