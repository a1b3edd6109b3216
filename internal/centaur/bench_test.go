package centaur

import (
	"runtime"
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
		Build:     New(Config{}),
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
	allocs, bytes := prototest.ColdStart(t, g, New(Config{}), 2)
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

// TestFlipAllocBudget pins the allocation count and bytes of one
// fail-quiesce-restore-quiesce episode on the benchmark's converged
// network, averaged over every eighth link after a warm-up pass over the
// same links (so every restarted session finds the graph and the view
// its previous one left). The budgets (see norace_test.go and
// race_test.go for the measurements) leave room for map-growth noise,
// not for rebuilding a restarted session's export view or neighbour
// P-graph from nothing.
func TestFlipAllocBudget(t *testing.T) {
	g, err := topogen.BRITE(160, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	net := benchNetwork(t, g)
	var edges []topology.Edge
	for i, e := range g.Edges() {
		if i%8 == 0 {
			edges = append(edges, e)
		}
	}
	pass := func() {
		for _, e := range edges {
			net.FailLink(e.A, e.B)
			if _, _, err := net.RunToConvergence(500_000_000); err != nil {
				t.Fatal(err)
			}
			net.RestoreLink(e.A, e.B)
			if _, _, err := net.RunToConvergence(500_000_000); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(len(edges))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(edges))
	t.Logf("%.0f allocations, %.1f KB per flip episode (%d links)", allocs, bytes/1e3, len(edges))
	if allocs > flipAllocBudget {
		t.Errorf("%.0f allocations per flip episode, budget %d", allocs, flipAllocBudget)
	}
	if bytes > flipByteBudget {
		t.Errorf("%.0f bytes allocated per flip episode, budget %d", bytes, flipByteBudget)
	}
}

// TestSparseIDsAllocateLikeDense pins that a node's tables are sized by
// the node count: a network whose IDs reach 4,200,000,000 allocates what
// its dense relabelling {1,2,3,4} does.
func TestSparseIDsAllocateLikeDense(t *testing.T) {
	prototest.SparseAllocatesLikeDense(t, New(Config{}))
}
