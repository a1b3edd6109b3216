package centaur

import (
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// TestIncrementalConvergesToSolver: the affected-destination solver must
// reach exactly the same converged state as the full solver (DESIGN.md
// §6 "recompute scope" ablation, correctness half).
func TestIncrementalConvergesToSolver(t *testing.T) {
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
			_, nodes := converge(t, g, Config{Incremental: true})
			checkAgainstSolver(t, g, nodes)
		})
	}
}

// TestIncrementalFlipSequence: fail/restore sequences must keep the
// incremental state equal to a cold start on the final topology.
func TestIncrementalFlipSequence(t *testing.T) {
	g, err := topogen.BRITE(50, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{Incremental: true})
	final := g.Clone()
	edges := g.Edges()
	e1, e2 := edges[3], edges[len(edges)/2]
	net.FailLink(e1.A, e1.B)
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	net.FailLink(e2.A, e2.B)
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	net.RestoreLink(e1.A, e1.B)
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	final.RemoveEdge(e2.A, e2.B)
	checkAgainstSolver(t, final, nodes)
}

// TestIncrementalFlapStorm: the hardest case — rapid flaps with
// interleaved convergence — must also match the full mode's outcome.
func TestIncrementalFlapStorm(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{Incremental: true})
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

// TestIncrementalMatchesFullMessageForMessage: on the same topology,
// delays, and flip, both modes must produce identical converged routes
// AND identical announced views (the incremental mode only skips work
// that would produce empty deltas).
func TestIncrementalMatchesFullMessageForMessage(t *testing.T) {
	g, err := topogen.CAIDALike(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inc bool) (map[routing.NodeID]*Node, *sim.Network) {
		net, nodes := converge(t, g, Config{Incremental: inc, Policy: policy.GaoRexford{TieBreak: policy.TieHashed}})
		e := g.Edges()[4]
		net.FailLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(50_000_000); err != nil {
			t.Fatal(err)
		}
		net.RestoreLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(50_000_000); err != nil {
			t.Fatal(err)
		}
		return nodes, net
	}
	full, _ := run(false)
	inc, _ := run(true)
	for _, id := range g.Nodes() {
		for _, to := range g.Nodes() {
			pf, pi := full[id].BestPath(to), inc[id].BestPath(to)
			if !pf.Equal(pi) {
				t.Fatalf("route %v->%v differs: full %v vs incremental %v", id, to, pf, pi)
			}
		}
		for _, nb := range g.Neighbors(id) {
			vf, vi := full[id].ExportedView(nb.ID), inc[id].ExportedView(nb.ID)
			if len(vf) != len(vi) {
				t.Fatalf("view %v->%v length differs: %d vs %d", id, nb.ID, len(vf), len(vi))
			}
			for i := range vf {
				if !vf[i].Equal(vi[i]) {
					t.Fatalf("view %v->%v differs at %d: %v vs %v", id, nb.ID, i, vf[i], vi[i])
				}
			}
		}
	}
}

// TestIncrementalDoesLessDerivationWork: the point of the mode — count
// derivations via the cache-miss path over a flip workload.
func TestIncrementalDoesLessDerivationWork(t *testing.T) {
	g, err := topogen.BRITE(80, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	countUnits := func(inc bool) int64 {
		build := New(Config{Incremental: inc})
		net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := net.RunToConvergence(100_000_000); err != nil {
			t.Fatal(err)
		}
		net.ResetStats()
		e := g.Edges()[7]
		net.FailLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(100_000_000); err != nil {
			t.Fatal(err)
		}
		return net.Stats().Units
	}
	// Units must be identical (same protocol messages); the modes differ
	// only in local computation, which the ablation benchmark measures.
	fullUnits := countUnits(false)
	incUnits := countUnits(true)
	if fullUnits != incUnits {
		t.Fatalf("message units differ between modes: full %d vs incremental %d", fullUnits, incUnits)
	}
}

// TestNoChangeHandleAllocatesNothing pins the steady-state cost of a
// round that changes nothing: an update whose every link the import
// filter drops walks the whole Handle → solve → finish pipeline on
// reused scratch, without a single allocation.
func TestNoChangeHandleAllocatesNothing(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{Incremental: true})
	id := g.Nodes()[0]
	n, from := nodes[id], g.Neighbors(id)[0].ID
	var msg sim.Message = Update{Delta: pgraph.Delta{Adds: []pgraph.LinkInfo{
		{Link: routing.Link{From: from, To: id}, ToIsDest: true},
	}}}
	if allocs := testing.AllocsPerRun(50, func() { n.Handle(from, msg) }); allocs != 0 {
		t.Fatalf("a no-change Handle round allocated %v times, want 0", allocs)
	}
}
