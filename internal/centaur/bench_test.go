package centaur

import (
	"testing"

	"centaur/internal/prototest"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// The two benchmarks drive Node.Handle — 97 % of a Centaur simulation's
// wall time — through the simulator on one fixed input (BRITE-like 160
// nodes, seed 1, the coldstart workload's shape), so two commits
// compare with benchstat without running a figure.

func benchNetwork(b testing.TB, g *topology.Graph) *sim.Network {
	b.Helper()
	net, err := sim.NewNetwork(sim.Config{
		Topology:  g,
		Build:     New(Config{Incremental: true}),
		DelaySeed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(500_000_000); err != nil {
		b.Fatal(err)
	}
	return net
}

// BenchmarkHandleColdStart measures one cold start to quiescence: bulk
// deltas on cold derive caches.
func BenchmarkHandleColdStart(b *testing.B) {
	g, err := topogen.BRITE(160, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchNetwork(b, g)
	}
}

// TestColdStartAllocBudget pins the allocation count and bytes of the
// benchmark's cold start. The budgets (see norace_test.go and
// race_test.go for the measurements) leave room for map-growth noise,
// not for another incrementally maintained P-graph per node or tables
// grown past the node count.
func TestColdStartAllocBudget(t *testing.T) {
	g, err := topogen.BRITE(160, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs, bytes := prototest.ColdStart(t, g, New(Config{Incremental: true}), 2)
	t.Logf("%.0f allocations, %.2f MB per cold start", allocs, bytes/1e6)
	if allocs > coldStartAllocBudget {
		t.Errorf("%.0f allocations per cold start, budget %d", allocs, coldStartAllocBudget)
	}
	if bytes > coldStartByteBudget {
		t.Errorf("%.0f bytes allocated per cold start, budget %d", bytes, coldStartByteBudget)
	}
}

// BenchmarkHandleFlip measures one link failed, quiesced, restored and
// quiesced on a converged network: the incremental path on warm caches.
func BenchmarkHandleFlip(b *testing.B) {
	g, err := topogen.BRITE(160, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	net := benchNetwork(b, g)
	edges := g.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		net.FailLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(500_000_000); err != nil {
			b.Fatal(err)
		}
		net.RestoreLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(500_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSparseIDsAllocateLikeDense pins that a node's tables are sized by
// the node count: a network whose IDs reach 4,200,000,000 allocates what
// its dense relabelling {1,2,3,4} does.
func TestSparseIDsAllocateLikeDense(t *testing.T) {
	prototest.SparseAllocatesLikeDense(t, New(Config{Incremental: true}))
}
