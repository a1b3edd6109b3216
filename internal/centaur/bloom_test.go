package centaur

import (
	"testing"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
	"centaur/internal/trace"
)

// overridePolicy forces non-shortest-path choices, so converged views
// actually carry Permission Lists — without it every PL is empty and a
// compression test proves nothing.
func overridePolicy() policy.Policy {
	return policy.GaoRexford{TieBreak: policy.TieOverride}
}

// checkAgainstSolverTie is checkAgainstSolver for a non-default
// tie-break mode.
func checkAgainstSolverTie(t *testing.T, g *topology.Graph, nodes map[routing.NodeID]*Node, mode policy.TieBreakMode) {
	t.Helper()
	s, err := solver.SolveOpts(g, solver.Options{TieBreak: mode})
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Nodes() {
			want, _ := s.Path(from, to)
			if got := nodes[from].BestPath(to); !got.Equal(want) {
				t.Fatalf("Centaur path %v->%v = %v, solver says %v", from, to, got, want)
			}
		}
	}
}

// TestBloomPLConvergesToSolver: with Bloom-compressed Permission Lists
// on, the converged routes must still match the static ground truth —
// the FP-safe membership rule means compression can widen a query but
// never change a routing decision.
func TestBloomPLConvergesToSolver(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{BloomPL: true, Policy: overridePolicy()})
	checkAgainstSolverTie(t, g, nodes, policy.TieOverride)
}

// TestBloomPLRoutesEqualExplicit pins bloom mode to explicit mode
// path-for-path, at the protocol default and at the worst tolerated
// false-positive target (0.5, where filters are smallest and false
// positives most likely).
func TestBloomPLRoutesEqualExplicit(t *testing.T) {
	g, err := topogen.BRITE(50, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	_, explicit := converge(t, g, Config{Policy: overridePolicy()})
	for _, fpRate := range []float64{0, 0.5} {
		_, compressed := converge(t, g, Config{BloomPL: true, PLFPRate: fpRate, Policy: overridePolicy()})
		for _, from := range g.Nodes() {
			for _, to := range g.Nodes() {
				want := explicit[from].BestPath(to)
				got := compressed[from].BestPath(to)
				if !got.Equal(want) {
					t.Fatalf("fpRate=%g: path %v->%v = %v, explicit mode says %v", fpRate, from, to, got, want)
				}
			}
		}
	}
}

// TestBloomPLNeighborGraphsCarryFilters: bloom mode must actually put
// compressed lists into the received per-neighbor P-graphs (otherwise
// the equivalence test above proves nothing). CompressPerm only accepts
// when the filter container beats the plain encoding, which needs
// provider-cone-sized groups: the HeTop-like stand-in at 200 nodes is
// the smallest fast topology that produces them, and the 0.5 fp target
// (the worst the protocol tolerates) shrinks the Bloom floor enough for
// those groups to pay.
func TestBloomPLNeighborGraphsCarryFilters(t *testing.T) {
	g, err := topogen.HeTopLike(200, 33)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{BloomPL: true, PLFPRate: 0.5, Policy: overridePolicy()})
	withFilters := 0
	for _, n := range nodes {
		for _, b := range n.nbrList {
			for _, lp := range n.NeighborGraph(b).PermissionLists() {
				if lp.Perm.Filters() != nil {
					withFilters++
				}
			}
		}
	}
	if withFilters == 0 {
		t.Fatal("no received Permission List carries the compressed form")
	}
	// Explicit mode must carry none, on any topology — use a small one.
	small, err := topogen.BRITE(50, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	_, plain := converge(t, small, Config{Policy: overridePolicy()})
	for _, n := range plain {
		for _, b := range n.nbrList {
			for _, lp := range n.NeighborGraph(b).PermissionLists() {
				if lp.Perm.Filters() != nil {
					t.Fatal("explicit mode leaked a compressed representation")
				}
			}
		}
	}
}

// TestBloomPLFailureRecovery exercises the steady phase: link failure
// and restore with compressed deltas must track the solver exactly.
func TestBloomPLFailureRecovery(t *testing.T) {
	g := topogen.Figure2a()
	net, nodes := converge(t, g, Config{BloomPL: true, Policy: overridePolicy()})
	l := g.Edges()[0]
	net.FailLink(l.A, l.B)
	if _, ok := net.Run(50_000_000); !ok {
		t.Fatal("failure did not quiesce")
	}
	net.RestoreLink(l.A, l.B)
	if _, ok := net.Run(50_000_000); !ok {
		t.Fatal("restore did not quiesce")
	}
	checkAgainstSolverTie(t, g, nodes, policy.TieOverride)
}

// TestBloomPLFalsePositivesReachNetworkThroughAdapter: a node behind an
// adapter env (sim.Reliable) still reports every Bloom false positive to
// the network, through the Emit the adapter forwards — the count equals
// an unwrapped run's.
func TestBloomPLFalsePositivesReachNetworkThroughAdapter(t *testing.T) {
	g, err := topogen.HeTopLike(120, 4) // small, yet takes false positives
	if err != nil {
		t.Fatal(err)
	}
	build := New(Config{BloomPL: true, PLFPRate: 0.5, Policy: overridePolicy()})
	count := func(b sim.Builder) int64 {
		net, err := sim.NewNetwork(sim.Config{Topology: g, Build: b, DelaySeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := net.RunToConvergence(50_000_000); err != nil {
			t.Fatal(err)
		}
		return net.Notes(trace.NotePLFalsePositive)
	}
	bare, wrapped := count(build), count(sim.Reliable(build, sim.ReliableConfig{}))
	if bare == 0 {
		t.Fatal("the run took no false positives; the test proves nothing")
	}
	if wrapped != bare {
		t.Fatalf("false positives behind sim.Reliable = %d, unwrapped = %d", wrapped, bare)
	}
}

// TestBloomPLFalsePositiveNotes: every Bloom false positive is one pl-fp
// note from the node deriving, caused by what that node was handling —
// parented to it and as deep — and the network counts each one. A link
// flip after the cold start gives notes under a root cause too.
func TestBloomPLFalsePositiveNotes(t *testing.T) {
	g, err := topogen.HeTopLike(120, 4)
	if err != nil {
		t.Fatal(err)
	}
	build := New(Config{BloomPL: true, PLFPRate: 0.5, Policy: overridePolicy()})
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// causes holds every event a note could be parented to: deliveries
	// and link transitions (a derivation runs inside a handler, or in a
	// timer that keeps the cause of the handler that armed it).
	causes := make(map[uint64]sim.TraceEvent)
	var notes []sim.TraceEvent
	net.Observe(func(ev sim.TraceEvent) {
		switch ev.Kind {
		case sim.TraceDeliver, sim.TraceLinkDown, sim.TraceLinkUp:
			causes[ev.Span] = ev
		case sim.TraceNote:
			notes = append(notes, ev)
		}
	})
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	l := g.Edges()[0]
	for _, flip := range []func(a, b routing.NodeID) bool{net.FailLink, net.RestoreLink} {
		if !flip(l.A, l.B) {
			t.Fatal("link flip refused")
		}
		if _, _, err := net.RunToConvergence(50_000_000); err != nil {
			t.Fatal(err)
		}
	}
	if len(notes) < 2 {
		t.Fatalf("%d pl-fp notes; the test proves nothing", len(notes))
	}
	if got := net.Notes(trace.NotePLFalsePositive); got != int64(len(notes)) {
		t.Fatalf("Network.Notes counts %d pl-fp notes, the stream carried %d", got, len(notes))
	}
	for _, ev := range notes {
		if ev.Note != trace.NotePLFalsePositive || ev.Msg != nil {
			t.Fatalf("note %+v: want a message-less pl-fp", ev)
		}
		cause, ok := causes[ev.Parent]
		if !ok {
			t.Fatalf("pl-fp %+v: parent %d is no delivery or link transition", ev, ev.Parent)
		}
		if ev.Depth != cause.Depth {
			t.Fatalf("pl-fp %+v at depth %d, its cause %+v at %d", ev, ev.Depth, cause, cause.Depth)
		}
		deriving := cause.To // the delivery's receiver
		if cause.Kind != sim.TraceDeliver && ev.From == cause.From {
			deriving = cause.From // either end of a flipped link derives
		}
		if ev.From != deriving {
			t.Fatalf("pl-fp %+v from node %v, but its cause %+v was handled by %v", ev, ev.From, cause, deriving)
		}
	}
}
