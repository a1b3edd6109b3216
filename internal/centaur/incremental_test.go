package centaur

import (
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// TestIncrementalConvergesToSolver: the affected-destination solver must
// reach exactly the converged state of the static solver.
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
			_, nodes := converge(t, g, Config{})
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
	net, nodes := converge(t, g, Config{})
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
// interleaved convergence — must also end in the static solver's state.
func TestIncrementalFlapStorm(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{})
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

// TestIncrementalDoesLessDerivationWork is the "recompute scope"
// ablation of DESIGN.md §6 in exact counts: over one link failure the
// node's affected-destination rounds evaluate strictly fewer derivations
// (centaur.derivations, the derive-cache misses) than the model's full
// recompute makes DerivePathWith calls on the same network and delays.
func TestIncrementalDoesLessDerivationWork(t *testing.T) {
	g, err := topogen.BRITE(80, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	// failOne converges a network of build, fails one link, reconverges,
	// and returns how far count advanced over the failure.
	failOne := func(build sim.Builder, count func() int64) int64 {
		net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := net.RunToConvergence(100_000_000); err != nil {
			t.Fatal(err)
		}
		before := count()
		e := g.Edges()[7]
		net.FailLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(100_000_000); err != nil {
			t.Fatal(err)
		}
		return count() - before
	}
	reg := telemetry.New()
	SetTelemetry(reg)
	defer SetTelemetry(nil)
	node := failOne(New(Config{}), reg.Counter("centaur.derivations").Value)

	var models []*refNode
	full := failOne(func(env sim.Env) sim.Protocol {
		m := newRefNode(Config{}, true, env)
		models = append(models, m)
		return m
	}, func() int64 {
		var c int64
		for _, m := range models {
			c += int64(m.derivations)
		}
		return c
	})
	if node == 0 || node >= full {
		t.Fatalf("a link failure cost the node %d derivations, the full recompute %d; want 0 < node < full", node, full)
	}
	t.Logf("derivations over one failure: node %d, full recompute %d", node, full)
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
	_, nodes := converge(t, g, Config{})
	id := g.Nodes()[0]
	n, from := nodes[id], g.Neighbors(id)[0].ID
	var msg sim.Message = Update{Delta: pgraph.Delta{Adds: []pgraph.LinkInfo{
		{Link: routing.Link{From: from, To: id}, ToIsDest: true},
	}}}
	if allocs := testing.AllocsPerRun(50, func() { n.Handle(from, msg) }); allocs != 0 {
		t.Fatalf("a no-change Handle round allocated %v times, want 0", allocs)
	}
}
