package pgraph_test

import (
	"slices"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/prototest"
	"centaur/internal/routing"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// listOf returns the paths of a path set in ascending destination order.
func listOf(paths map[routing.NodeID]routing.Path) []routing.Path {
	dests := make([]routing.NodeID, 0, len(paths))
	for d := range paths {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	list := make([]routing.Path, len(dests))
	for i, d := range dests {
		list[i] = paths[d]
	}
	return list
}

// rebuild runs BuildInto over ix on the recycled graph g and holds the
// result to a fresh Build of the same input, which indexes the paths'
// own nodes.
func rebuild(t *testing.T, g *pgraph.Graph, ix *topology.Index, root routing.NodeID, paths map[routing.NodeID]routing.Path) *pgraph.Graph {
	t.Helper()
	want, err := pgraph.Build(root, paths)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pgraph.BuildInto(g, ix, root, listOf(paths))
	if err != nil {
		t.Fatal(err)
	}
	if g != nil && got != g {
		t.Fatalf("root %v: BuildInto returned a new graph instead of the recycled one", root)
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("root %v: recycled build differs from a fresh one\nrecycled %v\nfresh %v", root, got, want)
	}
	if got.NumLinks() != want.NumLinks() || got.NumPermissionLists() != want.NumPermissionLists() ||
		got.NumDests() != want.NumDests() {
		t.Fatalf("root %v: recycled links/lists/dests %d/%d/%d, fresh %d/%d/%d", root,
			got.NumLinks(), got.NumPermissionLists(), got.NumDests(),
			want.NumLinks(), want.NumPermissionLists(), want.NumDests())
	}
	if n := len(got.PermissionLists()); n != got.NumPermissionLists() {
		t.Fatalf("root %v: %d Permission Lists on the links, count says %d", root, n, got.NumPermissionLists())
	}
	for d, p := range got.DeriveAllInto(nil) {
		if d != root && !p.Equal(paths[d]) {
			t.Fatalf("root %v: derived %v for %v, selected %v", root, p, d, paths[d])
		}
	}
	return got
}

// denseIndex indexes the node IDs 1 to n.
func denseIndex(n int) *topology.Index {
	ids := make([]routing.NodeID, n)
	for i := range ids {
		ids[i] = routing.NodeID(i + 1)
	}
	return topology.IndexOf(ids)
}

// pathSet keys the given paths by their destination.
func pathSet(paths ...routing.Path) map[routing.NodeID]routing.Path {
	out := make(map[routing.NodeID]routing.Path, len(paths))
	for _, p := range paths {
		out[p.Dest()] = p
	}
	return out
}

// TestBuildIntoMatchesBuild rebuilds one recycled graph over a sequence
// of inputs chosen so that every kind of leftover would show: the path
// set grows (new slots and chunks), shrinks (slots left blank), and
// loses its multi-homing while keeping its nodes — so a slot whose
// in-edge carried a Permission List is handed to an edge that must carry
// none — then moves to other roots, sparse node IDs, and every node of a
// generated topology.
func TestBuildIntoMatchesBuild(t *testing.T) {
	// Node 4 is multi-homed (2->4 and 3->4), as are 5 and 6 below it.
	multi := pathSet(
		routing.Path{1, 2}, routing.Path{1, 3},
		routing.Path{1, 2, 4}, routing.Path{1, 3, 4, 5}, routing.Path{1, 2, 4, 6},
		routing.Path{1, 3, 5, 7}, routing.Path{1, 3, 4, 6, 8},
	)
	small := denseIndex(100)
	g := rebuild(t, nil, small, 1, multi)
	if g.NumPermissionLists() == 0 {
		t.Fatal("the multi-homed input built no Permission List; the test would show nothing")
	}
	grown := pathSet(routing.Path{1, 2}, routing.Path{1, 3}, routing.Path{1, 2, 4}, routing.Path{1, 3, 4, 5})
	for d := routing.NodeID(10); d < 60; d++ {
		grown[d] = routing.Path{1, 2 + d%2, 4, d}
	}
	rebuild(t, g, small, 1, grown)
	// The same nodes as multi, every one single-homed.
	tree := pathSet(
		routing.Path{1, 2}, routing.Path{1, 3},
		routing.Path{1, 2, 4}, routing.Path{1, 2, 4, 5}, routing.Path{1, 2, 4, 6},
		routing.Path{1, 2, 4, 5, 7}, routing.Path{1, 2, 4, 6, 8},
	)
	if rebuild(t, g, small, 1, tree); g.NumPermissionLists() != 0 {
		t.Fatalf("a tree kept %d Permission Lists of the graph before it", g.NumPermissionLists())
	}
	rebuild(t, g, small, 1, multi)
	rebuild(t, g, small, 8, pathSet(routing.Path{8, 4}, routing.Path{8, 4, 1}))
	rebuild(t, g, small, 8, nil)

	// An invalid input fails and leaves the graph usable.
	if _, err := pgraph.BuildInto(g, small, 1, []routing.Path{{2, 3}}); err == nil {
		t.Fatal("a path that does not start at the root must fail")
	}
	if _, err := pgraph.BuildInto(g, small, 1, []routing.Path{{1, 2, 4}, {1, 3, 4}}); err == nil {
		t.Fatal("two paths for one destination must fail")
	}
	rebuild(t, g, small, 1, multi)

	brite, err := topogen.BRITE(60, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []*topology.Graph{prototest.SparseGraph(t), brite} {
		sol, err := solver.SolveOpts(topo, solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, root := range topo.Nodes() {
			rebuild(t, g, sol.Index(), root, sol.PathSet(root))
		}
	}
}

// TestBuildIntoAllocations pins what recycling buys: in the steady state
// a rebuild allocates its Permission Lists — one record per list plus
// the growth of its pairs — and nothing else, so a path set without
// multi-homing rebuilds for free.
func TestBuildIntoAllocations(t *testing.T) {
	tree := map[routing.NodeID]routing.Path{}
	multi := map[routing.NodeID]routing.Path{}
	for d := routing.NodeID(10); d < 90; d++ {
		tree[d] = routing.Path{1, 2 + d%3, d}
		multi[d] = routing.Path{1, 2 + d%3, 5 + d%2, d}
	}
	ix := denseIndex(100)
	g, err := pgraph.BuildInto(nil, ix, 1, listOf(multi))
	if err != nil {
		t.Fatal(err)
	}
	lists, pairs := g.NumPermissionLists(), 0
	for _, lp := range g.PermissionLists() {
		pairs += lp.Perm.NumPairs()
	}
	if lists == 0 {
		t.Fatal("the multi-homed input built no Permission List")
	}
	// The list fixes the order in which nodes take their slots, so one
	// rebuild (AllocsPerRun's warm-up) grows every slot to its final size.
	build := func(paths map[routing.NodeID]routing.Path) func() {
		list := listOf(paths)
		return func() {
			if _, err := pgraph.BuildInto(g, ix, 1, list); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(20, build(multi)); n < float64(lists) || n > float64(lists+pairs) {
		t.Errorf("recycled build with %d lists of %d pairs: %v allocations, want between %d and %d",
			lists, pairs, n, lists, lists+pairs)
	}
	if n := testing.AllocsPerRun(20, build(tree)); n != 0 {
		t.Errorf("recycled build of a tree: %v allocations, want 0", n)
	}
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := pgraph.Build(1, tree); err != nil {
			t.Fatal(err)
		}
	})
	if fresh < 100 {
		t.Errorf("a fresh Build of the same tree: %v allocations; the pin above compares against nothing", fresh)
	}
}
