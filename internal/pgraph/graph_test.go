package pgraph

import (
	"testing"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

func link(a, b routing.NodeID) routing.Link { return routing.Link{From: a, To: b} }

// testIx indexes every node ID the package's tests use: 1 to 1000 and
// the sparse IDs of the property tests.
var testIx = func() *topology.Index {
	ids := append([]routing.NodeID(nil), propIDs...)
	for id := routing.NodeID(1); id <= 1000; id++ {
		ids = append(ids, id)
	}
	return topology.IndexOf(ids)
}()

func TestGraphAddRemoveLink(t *testing.T) {
	g := New(testIx, 1)
	if !g.AddLink(link(1, 2)) {
		t.Fatal("first add should succeed")
	}
	if g.AddLink(link(1, 2)) {
		t.Fatal("duplicate add should report false")
	}
	if g.NumLinks() != 1 {
		t.Fatalf("NumLinks = %d, want 1", g.NumLinks())
	}
	if !g.HasLink(link(1, 2)) {
		t.Fatal("added link should be present")
	}
	if g.HasLink(link(2, 1)) {
		t.Fatal("links are directed; reverse must be absent")
	}
	if !g.RemoveLink(link(1, 2)) {
		t.Fatal("remove of present link should succeed")
	}
	if g.RemoveLink(link(1, 2)) {
		t.Fatal("remove of absent link should report false")
	}
	if g.NumLinks() != 0 {
		t.Fatalf("NumLinks = %d after removal, want 0", g.NumLinks())
	}
}

func TestGraphInvalidLinkRejected(t *testing.T) {
	g := New(testIx, 1)
	if g.AddLink(link(2, 2)) {
		t.Fatal("self-loop must be rejected")
	}
	if g.AddLink(link(routing.None, 2)) {
		t.Fatal("link from None must be rejected")
	}
}

func TestGraphMultiHomed(t *testing.T) {
	g := New(testIx, 1)
	g.AddLink(link(1, 3))
	if g.MultiHomed(3) {
		t.Fatal("single parent is not multi-homed")
	}
	g.AddLink(link(2, 3))
	if !g.MultiHomed(3) {
		t.Fatal("two parents means multi-homed")
	}
	if got := g.InDegree(3); got != 2 {
		t.Fatalf("InDegree = %d, want 2", got)
	}
	if got := g.Parents(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Parents = %v, want [N1 N2]", got)
	}
}

func TestGraphDestMarks(t *testing.T) {
	g := New(testIx, 1)
	g.AddLink(link(1, 2))
	g.MarkDest(2)
	if !g.IsDest(2) {
		t.Fatal("marked node should be a destination")
	}
	g.UnmarkDest(2)
	if g.IsDest(2) {
		t.Fatal("unmarked node should not be a destination")
	}
}

func TestGraphGCOnRemoval(t *testing.T) {
	// Removing a node's last link drops its bookkeeping, including the
	// destination mark — but the root keeps its mark.
	g := New(testIx, 1)
	g.MarkDest(1)
	g.AddLink(link(1, 2))
	g.MarkDest(2)
	g.RemoveLink(link(1, 2))
	if g.IsDest(2) {
		t.Fatal("isolated non-root node should lose its destination mark")
	}
	if !g.IsDest(1) {
		t.Fatal("root must keep its destination mark")
	}
}

func TestGraphPermissionLifecycle(t *testing.T) {
	g := New(testIx, 1)
	g.AddLink(link(1, 2))
	pl := &PermissionList{}
	pl.Add(5, routing.None)
	g.SetPermission(link(1, 2), pl)
	if g.NumPermissionLists() != 1 {
		t.Fatalf("NumPermissionLists = %d, want 1", g.NumPermissionLists())
	}
	if got := g.Permission(link(1, 2)); got == nil || !got.Permit(5, routing.None) {
		t.Fatal("attached Permission List should be retrievable")
	}
	// Setting an empty list clears the restriction.
	g.SetPermission(link(1, 2), &PermissionList{})
	if g.NumPermissionLists() != 0 {
		t.Fatal("empty Permission List should clear the attachment")
	}
	// Removing the link drops its Permission List.
	g.SetPermission(link(1, 2), pl)
	g.RemoveLink(link(1, 2))
	if g.NumPermissionLists() != 0 {
		t.Fatal("removing a link must drop its Permission List")
	}
}

func TestGraphCloneEqual(t *testing.T) {
	g := New(testIx, 1)
	g.AddLink(link(1, 2))
	g.AddLink(link(2, 3))
	g.MarkDest(3)
	pl := &PermissionList{}
	pl.Add(3, routing.None)
	g.SetPermission(link(2, 3), pl)

	cp := g.Clone()
	if !g.Equal(cp) {
		t.Fatal("clone must equal original")
	}
	cp.AddLink(link(1, 4))
	if g.Equal(cp) {
		t.Fatal("diverged clone must not equal original")
	}
	if g.HasLink(link(1, 4)) {
		t.Fatal("mutating the clone must not affect the original")
	}
}

func TestGraphNodesAndLinksSorted(t *testing.T) {
	g := New(testIx, 5)
	g.AddLink(link(5, 2))
	g.AddLink(link(2, 9))
	g.AddLink(link(5, 1))
	links := g.Links()
	for i := 1; i < len(links); i++ {
		a, b := links[i-1], links[i]
		if a.From > b.From || (a.From == b.From && a.To >= b.To) {
			t.Fatalf("Links not sorted: %v before %v", a, b)
		}
	}
	nodes := g.Nodes()
	want := []routing.NodeID{1, 2, 5, 9}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
}

func TestDestsBelow(t *testing.T) {
	g := New(testIx, 1)
	g.AddLink(link(1, 2))
	g.AddLink(link(2, 3))
	g.AddLink(link(2, 4))
	g.AddLink(link(4, 5))
	g.MarkDest(3)
	g.MarkDest(5)
	g.MarkDest(2)
	got := g.DestsBelow(2)
	want := []routing.NodeID{2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("DestsBelow(2) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DestsBelow(2) = %v, want %v", got, want)
		}
	}
	if got := g.DestsBelow(5); len(got) != 1 || got[0] != 5 {
		t.Fatalf("DestsBelow(leaf) = %v", got)
	}
	if got := g.DestsBelow(99); got != nil {
		t.Fatalf("DestsBelow(absent) = %v, want nil", got)
	}
	// A cycle (malformed received graph) must not hang.
	g.AddLink(link(5, 2))
	if got := g.DestsBelow(2); len(got) != 3 {
		t.Fatalf("DestsBelow with cycle = %v", got)
	}
}

// TestReadPathAllocations pins the steady-state allocation cost of the
// two reads the Centaur decision process takes per destination: a
// derivation allocates its result path and nothing else, and the
// subtree walk fills the caller's buffer from the graph's own scratch.
func TestReadPathAllocations(t *testing.T) {
	paths := map[routing.NodeID]routing.Path{}
	for d := routing.NodeID(2); d <= 40; d++ {
		paths[d] = routing.Path{1, 2 + d%3, 5 + d%7, 50 + d}[:2+d%3]
		paths[d][len(paths[d])-1] = d
	}
	g, err := Build(1, paths)
	if err != nil {
		t.Fatal(err)
	}
	dests := g.Dests()
	if n := testing.AllocsPerRun(20, func() {
		for _, d := range dests {
			if _, ok := g.DerivePath(d); !ok {
				t.Fatalf("no path to %v", d)
			}
		}
	}); n != float64(len(dests)) {
		t.Errorf("DerivePath: %v allocations for %d derivations, want one each", n, len(dests))
	}
	buf := make([]routing.NodeID, 0, len(dests))
	if n := testing.AllocsPerRun(20, func() {
		if buf = g.AppendDestsBelow(buf[:0], 1); len(buf) != len(dests) {
			t.Fatalf("%d destinations below the root, want %d", len(buf), len(dests))
		}
	}); n != 0 {
		t.Errorf("AppendDestsBelow into a sized buffer: %v allocations, want 0", n)
	}
}

// TestResetMatchesNew pins Graph.Reset: a graph that held Permission
// Lists, destination marks and an observer, reset to another root, is
// New(ix, root) in everything but its kept slot chunks, holds no slot's old
// edge lists, and assembles a later announcement exactly like a fresh
// graph.
func TestResetMatchesNew(t *testing.T) {
	paths := map[routing.NodeID]routing.Path{
		2: {1, 2}, 3: {1, 3}, 4: {1, 2, 4}, 5: {1, 3, 4, 5}, 6: {1, 2, 4, 6}, 7: {1, 3, 5, 7},
	}
	built, err := Build(1, paths)
	if err != nil {
		t.Fatal(err)
	}
	g := New(testIx, 1)
	g.MarkDest(1)
	g.Apply(Delta{Adds: built.LinkInfos()})
	g.SetFPObserver(func(routing.Link, routing.NodeID, routing.NodeID) {})
	if g.NumPermissionLists() == 0 {
		t.Fatal("the announcement carried no Permission List; the test would show nothing")
	}
	chunks := len(g.nodes.chunks)

	g.Reset(9)
	if fresh := New(testIx, 9); !g.Equal(fresh) || !fresh.Equal(g) || g.Root() != 9 ||
		g.NumLinks() != 0 || g.NumDests() != 0 || g.NumPermissionLists() != 0 || g.fpObserver != nil {
		t.Fatalf("reset graph differs from New(ix, 9): %v", g)
	}
	if len(g.nodes.chunks) != chunks {
		t.Fatalf("Reset kept %d slot chunks of %d", len(g.nodes.chunks), chunks)
	}
	for s := int32(0); int(s) < chunks*chunkSize; s++ {
		if nd := g.nodes.at(s); nd.in != nil || nd.out != nil {
			t.Fatalf("slot %d kept edge lists (cap %d in, %d out)", s, cap(nd.in), cap(nd.out))
		}
	}

	next, err := Build(9, map[routing.NodeID]routing.Path{
		8: {9, 8}, 3: {9, 8, 3}, 2: {9, 2}, 4: {9, 2, 4}, 5: {9, 8, 3, 5}, 1: {9, 8, 3, 5, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := New(testIx, 9)
	for _, h := range []*Graph{g, want} {
		h.MarkDest(9)
		h.Apply(Delta{Adds: next.LinkInfos()})
	}
	if !g.Equal(want) || !want.Equal(g) {
		t.Fatalf("reset graph assembled\n%v\nfresh graph\n%v", g, want)
	}
	for _, d := range want.Dests() {
		gp, gok := g.DerivePath(d)
		wp, wok := want.DerivePath(d)
		if gok != wok || !gp.Equal(wp) {
			t.Fatalf("dest %v: reset graph derives %v, fresh graph %v", d, gp, wp)
		}
	}
}
