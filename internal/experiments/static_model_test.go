package experiments

import (
	"fmt"
	"slices"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// The model below is Figure 5's accounting as it ran before the shared
// export views: for every surviving neighbor of the endpoint, the view
// exported before the failure and the view exported after it are each
// rebuilt from the whole path set with pgraph.Build and compared with
// pgraph.Diff. It is the oracle nodeStatic.failureImpact is held to.
// (The runner rebuilt the before-views for every failure as well; the
// model builds them once per endpoint, which changes no result.)

// modelOldViews rebuilds the views u exports to each of its neighbors
// before any failure, aligned with Neighbors(u). They do not depend on
// which link fails, so the comparison builds them once per endpoint.
func modelOldViews(sol *solver.Solution, st *nodeStatic, u routing.NodeID) [][]pgraph.LinkInfo {
	nbs := sol.Topology().Neighbors(u)
	buf := make(map[routing.NodeID]routing.Path, len(st.paths))
	views := make([][]pgraph.LinkInfo, len(nbs))
	for i, nb := range nbs {
		views[i] = exportLinkView(u, nb, st.paths, st.classes, sol.Policy(), buf)
	}
	return views
}

// modelFailureImpact measures endpoint u's immediate reaction to losing
// its link to v by rebuilding every view exported after the failure and
// diffing it against the one exported before (all, from modelOldViews).
func modelFailureImpact(sol *solver.Solution, st *nodeStatic, all [][]pgraph.LinkInfo, u, v routing.NodeID) edgeImpact {
	// Old exported views toward every surviving neighbor, aligned with
	// Neighbors(u) (nil at v's slot).
	oldViews := slices.Clone(all)
	for i, nb := range sol.Topology().Neighbors(u) {
		if nb.ID == v {
			oldViews[i] = nil
		}
	}
	buf := make(map[routing.NodeID]routing.Path, len(st.paths))
	via := sol.DestsVia(u, v)
	repl := replacements(sol, st, via, u, v)
	return edgeImpact{
		rootCause: rootCauseCentaurMsgs(oldViews, routing.Link{From: u, To: v}),
		bgpMsgs:   immediateBGPMsgs(sol, st, via, repl, u, v),
		delta:     immediateCentaurDelta(sol, st, repl, oldViews, u, v, buf),
	}
}

// rootCauseCentaurMsgs counts the root cause notifications endpoint u
// must emit the moment its link to v fails: one withdrawal of the
// directed failed link per surviving neighbor whose exported view
// contained it.
func rootCauseCentaurMsgs(oldViews [][]pgraph.LinkInfo, failed routing.Link) int {
	msgs := 0
	for _, view := range oldViews {
		for _, li := range view {
			if li.Link == failed {
				msgs++
				break
			}
		}
	}
	return msgs
}

// immediateCentaurDelta counts the [adds, removes] link-announcement
// units endpoint u sends right after its link to v fails: the
// per-neighbor delta between its old exported link-state views
// (oldViews, aligned with Neighbors(u)) and the views rebuilt from the
// replacement routes (repl).
func immediateCentaurDelta(sol *solver.Solution, st *nodeStatic, repl map[routing.NodeID]policy.Candidate,
	oldViews [][]pgraph.LinkInfo, u, v routing.NodeID, buf map[routing.NodeID]routing.Path) [2]int {
	pol := sol.Policy()
	// New path set: every route through v moves to its best replacement
	// (or disappears); the rest carry over.
	newPaths := make(map[routing.NodeID]routing.Path, len(st.paths))
	newClasses := make(map[routing.NodeID]policy.RouteClass, len(st.paths))
	for d, p := range st.paths {
		if p.NextHop(u) != v {
			newPaths[d] = p
			newClasses[d] = st.classes[d]
		} else if best, ok := repl[d]; ok {
			newPaths[d] = best.Path
			newClasses[d] = best.Class
		}
	}
	var out [2]int
	for i, nb := range sol.Topology().Neighbors(u) {
		if nb.ID == v {
			continue
		}
		newView := exportLinkView(u, nb, newPaths, newClasses, pol, buf)
		d := pgraph.Diff(oldViews[i], newView)
		out[0] += len(d.Adds)
		out[1] += len(d.Removes)
	}
	return out
}

// exportLinkView assembles the link-level announcement view of paths as
// exported to neighbor nb (the batch equivalent of the protocol's
// incrementally maintained pgraph.View). buf is reused as the
// exportable-path work map — pgraph.Build does not retain it.
func exportLinkView(self routing.NodeID, nb topology.Neighbor,
	paths map[routing.NodeID]routing.Path, classes map[routing.NodeID]policy.RouteClass,
	pol policy.Policy, buf map[routing.NodeID]routing.Path) []pgraph.LinkInfo {
	clear(buf)
	for d, p := range paths {
		if !pol.Export(self, classes[d], nb.Rel) || p.Contains(nb.ID) {
			continue
		}
		buf[d] = p
	}
	g, err := pgraph.Build(self, buf)
	if err != nil {
		// Selected paths are valid by construction; a failure here is a
		// programming error.
		panic(fmt.Sprintf("experiments: building export view: %v", err))
	}
	return g.LinkInfos()
}

// withSiblings returns a BRITE-like topology with sibling links placed
// the one way that is safe under mutual-transit export (DESIGN.md): a
// stub is detached from its providers and homed behind another stub as
// its sibling.
func withSiblings(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topogen.BRITE(80, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var stubs []routing.NodeID
	for _, n := range g.Nodes() {
		stub := true
		for _, nb := range g.Neighbors(n) {
			stub = stub && nb.Rel == topology.RelProvider
		}
		if stub {
			stubs = append(stubs, n)
		}
	}
	if len(stubs) < 8 {
		t.Fatalf("only %d stubs to pair up", len(stubs))
	}
	for i := 0; i+1 < 8; i += 2 {
		s1, s2 := stubs[i], stubs[i+1]
		for _, nb := range append([]topology.Neighbor(nil), g.Neighbors(s2)...) {
			g.RemoveEdge(s2, nb.ID)
		}
		if err := g.AddEdge(s1, s2, topology.RelSibling); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestFigure5MatchesModel holds the shared incremental export views to
// the rebuild-and-diff model: the same root cause count, BGP messages
// and [adds, removes] at each endpoint of every link. After each
// measurement the views must be back to what they were — that is what
// lets one set of views serve every neighbor and every sample.
func TestFigure5MatchesModel(t *testing.T) {
	gen := func(f func(int, int64) (*topology.Graph, error), n int, seed int64) func(*testing.T) *topology.Graph {
		return func(t *testing.T) *topology.Graph {
			g, err := f(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	for _, tc := range []struct {
		name  string
		graph func(*testing.T) *topology.Graph
		long  bool
	}{
		{"caida-120", gen(topogen.CAIDALike, 120, 3), false},
		{"hetop-120", gen(topogen.HeTopLike, 120, 4), false},
		{"caida-300", gen(topogen.CAIDALike, 300, 1), true},
		{"hetop-300", gen(topogen.HeTopLike, 300, 1), true},
		{"brite-siblings", withSiblings, false},
	} {
		for _, tb := range []policy.TieBreakMode{policy.TieOverride, policy.TieHashed} {
			tc, tb := tc, tb
			t.Run(fmt.Sprintf("%s/%v", tc.name, tb), func(t *testing.T) {
				if tc.long && testing.Short() {
					t.Skip("every edge of a 300-node graph rebuilds ~10^5 views")
				}
				t.Parallel()
				sol, err := solver.SolveOpts(tc.graph(t), solver.Options{TieBreak: tb})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstModel(t, sol)
			})
		}
	}
}

// checkAgainstModel compares both accountings on every edge of sol's
// topology, one endpoint at a time so each endpoint's views see all of
// its failures in sequence.
func checkAgainstModel(t *testing.T, sol *solver.Solution) {
	g := sol.Topology()
	rels := make(map[topology.Relationship]bool)
	for _, u := range g.Nodes() {
		st := newNodeStatic(sol, u)
		before := make(map[topology.Relationship]*pgraph.Graph, len(st.views))
		for rel, view := range st.views {
			before[rel] = view.Graph().Clone()
			rels[rel] = true
		}
		oldViews := modelOldViews(sol, st, u)
		for _, nb := range g.Neighbors(u) {
			got := st.failureImpact(sol, u, nb.ID)
			if want := modelFailureImpact(sol, st, oldViews, u, nb.ID); got != want {
				t.Fatalf("%v losing its link to %v: impact %+v, model %+v", u, nb.ID, got, want)
			}
			for rel, view := range st.views {
				if view.Graph().String() != before[rel].String() {
					t.Fatalf("%v losing its link to %v: the %v view was not put back", u, nb.ID, rel)
				}
			}
		}
	}
	t.Logf("%d nodes, %d links, relationships seen: %d", g.NumNodes(), len(g.Edges()), len(rels))
}
