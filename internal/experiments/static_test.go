package experiments

import (
	"testing"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/solver"
	"centaur/internal/topogen"
)

// solveSmall builds and solves the fixed 40-node topology the golden
// Figure 5 counts below were recorded on.
func solveSmall(t *testing.T) *solver.Solution {
	t.Helper()
	g, err := topogen.BRITE(40, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.SolveOpts(g, solver.Options{TieBreak: policy.TieOverride})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

// TestFigure5ImpactGolden pins the per-edge and total counts of all
// three Figure 5 accounting models on a fixed topology. The golden
// numbers were recorded when every exported view was still rebuilt with
// pgraph.Build and diffed, before bestReplacement/replacements were
// factored out; they now pin the shared incremental views to that
// original behavior.
func TestFigure5ImpactGolden(t *testing.T) {
	sol := solveSmall(t)
	edges := sol.Topology().Edges()
	if len(edges) != 77 {
		t.Fatalf("edges = %d, want 77 (topology drifted; regenerate the golden counts)", len(edges))
	}

	impact := func(u, v routing.NodeID) edgeImpact {
		return newNodeStatic(sol, u).failureImpact(sol, u, v)
	}

	var rc, bgp, fr int
	for _, e := range edges {
		a, b := impact(e.A, e.B), impact(e.B, e.A)
		rc += a.rootCause + b.rootCause
		bgp += a.bgpMsgs + b.bgpMsgs
		fr += a.delta[0] + a.delta[1] + b.delta[0] + b.delta[1]
	}
	if rc != 656 || bgp != 2086 || fr != 2384 {
		t.Errorf("totals rc=%d bgp=%d fullrepair=%d, want 656/2086/2384", rc, bgp, fr)
	}

	golden := []struct {
		i       int
		rc, bgp int
		dA, dB  [2]int
	}{
		{0, 21, 237, [2]int{0, 77}, [2]int{40, 140}},
		{1, 25, 294, [2]int{44, 143}, [2]int{0, 140}},
		{2, 14, 48, [2]int{20, 26}, [2]int{2, 4}},
		{3, 13, 49, [2]int{10, 14}, [2]int{7, 8}},
		{4, 12, 12, [2]int{10, 12}, [2]int{0, 0}},
	}
	for _, g := range golden {
		e := edges[g.i]
		a, b := impact(e.A, e.B), impact(e.B, e.A)
		if got := a.rootCause + b.rootCause; got != g.rc {
			t.Errorf("edge %v-%v rootCause = %d, want %d", e.A, e.B, got, g.rc)
		}
		if got := a.bgpMsgs + b.bgpMsgs; got != g.bgp {
			t.Errorf("edge %v-%v bgpMsgs = %d, want %d", e.A, e.B, got, g.bgp)
		}
		if a.delta != g.dA || b.delta != g.dB {
			t.Errorf("edge %v-%v delta = %v/%v, want %v/%v", e.A, e.B, a.delta, b.delta, g.dA, g.dB)
		}
	}
}

// TestBestReplacementMatchesReference checks the factored-out decision
// helper against a straightforward reference implementation of the
// original inlined loop, for every edge and affected destination.
func TestBestReplacementMatchesReference(t *testing.T) {
	sol := solveSmall(t)
	g := sol.Topology()
	pol := sol.Policy()

	reference := func(u, v, d routing.NodeID) policy.Candidate {
		var best policy.Candidate
		for _, nb := range g.Neighbors(u) {
			if nb.ID == v {
				continue
			}
			p, ok := sol.Path(nb.ID, d)
			if !ok || p.Contains(u) {
				continue
			}
			if !pol.Export(nb.ID, sol.Class(nb.ID, d), nb.Rel.Invert()) {
				continue
			}
			cand := policy.Candidate{Path: p.Prepend(u), Class: policy.ClassOf(nb.Rel), Via: nb.ID}
			if len(best.Path) == 0 || pol.Better(u, cand, best) {
				best = cand
			}
		}
		return best
	}

	checked := 0
	for _, e := range g.Edges() {
		for _, pair := range [2][2]routing.NodeID{{e.A, e.B}, {e.B, e.A}} {
			u, v := pair[0], pair[1]
			st := newNodeStatic(sol, u)
			for d, p := range st.paths {
				if p.NextHop(u) != v {
					continue
				}
				got := bestReplacement(sol, u, v, d)
				want := reference(u, v, d)
				if !got.Path.Equal(want.Path) || got.Class != want.Class || got.Via != want.Via {
					t.Fatalf("bestReplacement(%v, %v, %v) = %+v, want %+v", u, v, d, got, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no affected destinations checked")
	}
}

// TestFigure5AllocBudget pins Figure 5's allocation count per sampled
// link on the CAIDA-like 120-node fixture. The shared views measure 20
// links in about 1,100 allocations each — per-endpoint path sets and
// base views, then Flush deltas; the rebuild-per-neighbor runner took
// about 13,600. The budget leaves room for scheduling and map-growth
// noise, not for a P-graph build per neighbor.
func TestFigure5AllocBudget(t *testing.T) {
	g, err := topogen.CAIDALike(120, 3)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.SolveOpts(g, solver.Options{TieBreak: policy.TieOverride})
	if err != nil {
		t.Fatal(err)
	}
	const links, budget = 20, 2000
	perLink := testing.AllocsPerRun(3, func() {
		if _, err := Figure5("budget", sol, links, 1); err != nil {
			t.Fatal(err)
		}
	}) / links
	t.Logf("%.0f allocations per sampled link", perLink)
	if perLink > budget {
		t.Errorf("%.0f allocations per sampled link, budget %d", perLink, budget)
	}
}
