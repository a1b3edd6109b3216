package centaur

import (
	"math/rand"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
)

// TestEquivalenceUnderEveryTieBreak runs the converged-state equivalence
// against the solver for each within-class preference model (DESIGN.md
// §2.7 promises all three implementations share the order verbatim).
func TestEquivalenceUnderEveryTieBreak(t *testing.T) {
	g, err := topogen.CAIDALike(70, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []policy.TieBreakMode{
		policy.TieLowestVia, policy.TieHashed, policy.TieHashedPreferred, policy.TieOverride,
	} {
		t.Run(mode.String(), func(t *testing.T) {
			_, nodes := converge(t, g, Config{Policy: policy.GaoRexford{TieBreak: mode}})
			s, err := solver.SolveOpts(g, solver.Options{TieBreak: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range g.Nodes() {
				for _, to := range g.Nodes() {
					want, _ := s.Path(from, to)
					if got := nodes[from].BestPath(to); !got.Equal(want) {
						t.Fatalf("mode %v: path %v->%v = %v, solver says %v", mode, from, to, got, want)
					}
				}
			}
		})
	}
}

// TestLoopFreeForwarding is DESIGN.md invariant 4: following converged
// next hops from any node reaches the destination without revisits.
func TestLoopFreeForwarding(t *testing.T) {
	g, err := topogen.HeTopLike(60, 33)
	if err != nil {
		t.Fatal(err)
	}
	_, nodes := converge(t, g, Config{Policy: policy.GaoRexford{TieBreak: policy.TieOverride}})
	for _, from := range g.Nodes() {
		for _, to := range g.Nodes() {
			if from == to {
				continue
			}
			cur := from
			seen := map[routing.NodeID]bool{}
			for cur != to {
				if seen[cur] {
					t.Fatalf("forwarding loop toward %v at %v", to, cur)
				}
				seen[cur] = true
				p := nodes[cur].BestPath(to)
				if p == nil {
					break // consistently unreachable is fine
				}
				if len(p) < 2 {
					t.Fatalf("broken next hop at %v toward %v", cur, to)
				}
				cur = p[1]
			}
		}
	}
}

func TestHandleIgnoresForeignMessages(t *testing.T) {
	g := topogen.Figure2a()
	net, nodes := converge(t, g, Config{})
	a := nodes[topogen.NodeA]
	before := a.Routes()
	// A message type the node does not speak must be ignored.
	a.Handle(topogen.NodeB, fakeMsg{})
	// An update from a neighbor with no session (down link) is ignored.
	net.FailLink(topogen.NodeA, topogen.NodeB)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	a.Handle(topogen.NodeB, Update{Delta: pgraph.Delta{
		Adds: []pgraph.LinkInfo{{Link: routing.Link{From: topogen.NodeB, To: topogen.NodeD}, ToIsDest: true}},
	}})
	if gb := a.NeighborGraph(topogen.NodeB); gb != nil {
		t.Fatal("down neighbor must have no P-graph")
	}
	_ = before
}

type fakeMsg struct{}

func (fakeMsg) Kind() string { return "fake" }
func (fakeMsg) Units() int   { return 1 }

// TestImportFilterDropsLinksPointingAtSelf: §4.3.1 Step 2.
func TestImportFilterDropsLinksPointingAtSelf(t *testing.T) {
	g := topogen.Figure2a()
	_, nodes := converge(t, g, Config{})
	a := nodes[topogen.NodeA]
	// Inject an announcement from B containing a link pointing at A.
	a.Handle(topogen.NodeB, Update{Delta: pgraph.Delta{
		Adds: []pgraph.LinkInfo{
			{Link: routing.Link{From: topogen.NodeD, To: topogen.NodeA}, ToIsDest: true},
		},
	}})
	gb := a.NeighborGraph(topogen.NodeB)
	if gb.HasLink(routing.Link{From: topogen.NodeD, To: topogen.NodeA}) {
		t.Fatal("links pointing at the local node must be import-filtered")
	}
}

// TestPolicyWithdrawalOnlyAffectsAnnouncingNeighbor: a plain (non-failed)
// removal must not purge the link from other neighbors' P-graphs.
func TestPolicyWithdrawalOnlyAffectsAnnouncingNeighbor(t *testing.T) {
	g := topogen.Figure2a()
	_, nodes := converge(t, g, Config{})
	d := nodes[topogen.NodeD]
	// D hears from both B and C; both graphs contain the link A->B or
	// A->C respectively... take a link D learned from B:
	gb := d.NeighborGraph(topogen.NodeB)
	infos := gb.LinkInfos()
	if len(infos) == 0 {
		t.Skip("B announced nothing to D under this policy")
	}
	l := infos[0].Link
	// C withdraws the same link (policy change, no failure flag): only
	// C's graph may change.
	before := gb.NumLinks()
	d.Handle(topogen.NodeC, Update{Delta: pgraph.Delta{Removes: []routing.Link{l}}})
	if gb.NumLinks() != before {
		t.Fatal("a policy withdrawal from C must not touch B's P-graph")
	}
}

// TestRootCauseMaskVsDisabled: a third-party failure notice must mask
// the link for derivation (root cause on) without mutating the
// announcing neighbor's graph; with the ablation flag it must be ignored
// entirely.
func TestRootCauseMaskVsDisabled(t *testing.T) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"enabled", false},
		{"disabled", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := topogen.Figure2a()
			_, nodes := converge(t, g, Config{DisableRootCause: tc.disable})
			a := nodes[topogen.NodeA]
			// A's route to D goes via B: <A,B,D>. Inject a third-party
			// notice (ostensibly from C) that link B->D failed.
			l := routing.Link{From: topogen.NodeB, To: topogen.NodeD}
			before := a.BestPath(topogen.NodeD)
			if !before.Equal(routing.Path{topogen.NodeA, topogen.NodeB, topogen.NodeD}) {
				t.Fatalf("precondition: A->D = %v", before)
			}
			a.Handle(topogen.NodeC, Update{FailedLinks: []routing.Link{l}})
			// Either way, B's announced graph must be untouched: the
			// notice came from C, and B still claims the link.
			if gb := a.NeighborGraph(topogen.NodeB); !gb.HasLink(l) {
				t.Fatal("a third-party notice must never mutate the announcing neighbor's graph")
			}
			after := a.BestPath(topogen.NodeD)
			if tc.disable {
				if !after.Equal(before) {
					t.Fatalf("with root cause disabled the notice must be ignored; A->D = %v", after)
				}
				return
			}
			// Root cause on: derivation must avoid the masked link and
			// fall back to the path via C.
			want := routing.Path{topogen.NodeA, topogen.NodeC, topogen.NodeD}
			if !after.Equal(want) {
				t.Fatalf("masked link still used: A->D = %v, want %v", after, want)
			}
			// A re-announcement of the link by B lifts the mask.
			gb := a.NeighborGraph(topogen.NodeB)
			li := pgraph.LinkInfo{Link: l, ToIsDest: gb.IsDest(l.To)}
			a.Handle(topogen.NodeB, Update{Delta: pgraph.Delta{Adds: []pgraph.LinkInfo{li}}})
			if p := a.BestPath(topogen.NodeD); !p.Equal(before) {
				t.Fatalf("re-announcement must lift the mask; A->D = %v, want %v", p, before)
			}
		})
	}
}

// TestStartWithDownLink: a node whose link is down at Start must not
// create a session for it.
func TestStartWithDownLink(t *testing.T) {
	g := topogen.Figure2a()
	nodes := make(map[routing.NodeID]*Node)
	build := New(Config{})
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
	net.FailLink(topogen.NodeB, topogen.NodeD) // before Start events run
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	if nodes[topogen.NodeD].NeighborGraph(topogen.NodeB) != nil {
		t.Fatal("down adjacency must have no session at start")
	}
	want := routing.Path{topogen.NodeA, topogen.NodeC, topogen.NodeD}
	if p := nodes[topogen.NodeA].BestPath(topogen.NodeD); !p.Equal(want) {
		t.Fatalf("A->D = %v, want %v", p, want)
	}
}

// TestFlapStorm: rapid fail/restore cycles of the same link must still
// land in the correct converged state (session restart correctness).
func TestFlapStorm(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{})
	e := g.Edges()[3]
	for i := 0; i < 5; i++ {
		net.FailLink(e.A, e.B)
		net.RestoreLink(e.A, e.B) // restore before reconvergence completes
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

// TestMultipleSimultaneousFailures: two links failing in the same
// instant must still converge to the cold-start state of the remaining
// topology.
func TestMultipleSimultaneousFailures(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 29)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := converge(t, g, Config{})
	edges := g.Edges()
	e1, e2 := edges[2], edges[len(edges)-3]
	net.FailLink(e1.A, e1.B)
	net.FailLink(e2.A, e2.B) // no convergence in between
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
	final := g.Clone()
	final.RemoveEdge(e1.A, e1.B)
	final.RemoveEdge(e2.A, e2.B)
	checkAgainstSolver(t, final, nodes)
}

// TestDeterministicRuns: two identical simulations must produce
// identical accounting — the reproducibility guarantee every number in
// EXPERIMENTS.md rests on.
func TestDeterministicRuns(t *testing.T) {
	g, err := topogen.CAIDALike(50, 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int64, int64, int64) {
		net, _ := converge(t, g, Config{})
		e := g.Edges()[5]
		net.ResetStats()
		net.FailLink(e.A, e.B)
		if _, _, err := net.RunToConvergence(50_000_000); err != nil {
			t.Fatal(err)
		}
		st := net.Stats()
		return st.Units, st.Messages, st.Bytes
	}
	u1, m1, b1 := run()
	u2, m2, b2 := run()
	if u1 != u2 || m1 != m2 || b1 != b2 {
		t.Fatalf("runs diverged: (%d,%d,%d) vs (%d,%d,%d)", u1, m1, b1, u2, m2, b2)
	}
}

// TestRandomFlipSequencesMatchColdStart drives random fail/restore
// sequences (some without intervening convergence) and checks the final
// converged state equals a cold start on the final topology.
func TestRandomFlipSequencesMatchColdStart(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, err := topogen.BRITE(36, 2, seed*101)
		if err != nil {
			t.Fatal(err)
		}
		net, nodes := converge(t, g, Config{})
		final := g.Clone()
		rng := rand.New(rand.NewSource(seed))
		edges := g.Edges()
		down := map[int]bool{}
		for step := 0; step < 12; step++ {
			i := rng.Intn(len(edges))
			e := edges[i]
			if down[i] {
				net.RestoreLink(e.A, e.B)
				final.AddEdge(e.A, e.B, e.Rel) //nolint:errcheck
				down[i] = false
			} else {
				net.FailLink(e.A, e.B)
				final.RemoveEdge(e.A, e.B)
				down[i] = true
			}
			if rng.Intn(2) == 0 {
				if _, _, err := net.RunToConvergence(100_000_000); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, _, err := net.RunToConvergence(100_000_000); err != nil {
			t.Fatal(err)
		}
		if !final.Connected() {
			continue // partitions make per-pair comparison noisy; skip
		}
		checkAgainstSolver(t, final, nodes)
	}
}
