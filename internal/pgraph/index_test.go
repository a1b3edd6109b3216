package pgraph

import (
	"testing"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// checkPositions asserts that g's position table and its slot records
// agree: every node the graph holds is found through its index position
// at its own slot, and no other position resolves.
func checkPositions(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.slotOf) != g.ix.Len() {
		t.Fatalf("position table has %d entries for an index of %d", len(g.slotOf), g.ix.Len())
	}
	held := 0
	for s := int32(0); s < g.nodes.n; s++ {
		nd := g.nodes.at(s)
		if !nd.id.IsValid() {
			continue // a released slot
		}
		held++
		if p := g.ix.Pos(nd.id); p < 0 || int(nd.pos) != p || g.slotOf[p] != s+1 {
			t.Fatalf("slot %d holds %v (position %d), the table maps position %d to %d",
				s, nd.id, nd.pos, p, g.slotOf[max(p, 0)]-1)
		}
	}
	entries := 0
	for _, e := range g.slotOf {
		if e != 0 {
			entries++
		}
	}
	if entries != held {
		t.Fatalf("position table resolves %d nodes, the graph holds %d", entries, held)
	}
}

// TestSparseIDsResolveThroughIndex builds and derives over node IDs up
// to 4.2e9: the position table is as long as the index, not the
// highest ID.
func TestSparseIDsResolveThroughIndex(t *testing.T) {
	const far = routing.NodeID(4_200_000_000)
	ix := topology.IndexOf([]routing.NodeID{1, 2, 3, far})
	g := New(ix, 1)
	g.MarkDest(1)
	g.Apply(Delta{Adds: []LinkInfo{
		{Link: link(1, 2), ToIsDest: true},
		{Link: link(1, 3), ToIsDest: true},
		{Link: link(2, far), ToIsDest: true},
		{Link: link(3, far), ToIsDest: true, Perm: []PermEntry{{Dest: far, Next: routing.None}}},
	}})
	checkPositions(t, g)
	if len(g.slotOf) != 4 {
		t.Fatalf("position table of %d entries for 4 indexed nodes", len(g.slotOf))
	}
	if p, ok := g.DerivePath(far); !ok || !p.Equal(routing.Path{1, 3, far}) {
		t.Fatalf("DerivePath(%v) = %v, %v; want the permitted path through 3", far, p, ok)
	}
	if !g.IsDest(far) || g.InDegree(far) != 2 {
		t.Fatalf("%v: dest %v, in-degree %d", far, g.IsDest(far), g.InDegree(far))
	}
	g.RemoveLink(link(3, far))
	if p, ok := g.DerivePath(far); !ok || !p.Equal(routing.Path{1, 2, far}) {
		t.Fatalf("after the restricted link left, DerivePath(%v) = %v, %v", far, p, ok)
	}
	checkPositions(t, g)
}

// TestOutsideIndexRejected checks that a node the index does not hold
// never enters a graph: AddLink refuses the link, Apply skips it while
// applying the rest of the delta, MarkDest ignores it, and BuildInto
// fails.
func TestOutsideIndexRejected(t *testing.T) {
	ix := topology.IndexOf([]routing.NodeID{1, 2, 3})
	g := New(ix, 1)
	for _, l := range []routing.Link{link(1, 9), link(9, 2), link(9, 8)} {
		if g.AddLink(l) {
			t.Fatalf("AddLink(%v) with an unindexed endpoint succeeded", l)
		}
	}
	g.Apply(Delta{Adds: []LinkInfo{
		{Link: link(1, 2), ToIsDest: true},
		{Link: link(2, 9), ToIsDest: true},
		{Link: link(2, 3), ToIsDest: true},
	}})
	if got := g.Links(); len(got) != 2 || !g.HasLink(link(1, 2)) || !g.HasLink(link(2, 3)) {
		t.Fatalf("Apply kept %v; want the two indexed links", got)
	}
	g.MarkDest(9)
	if g.IsDest(9) || g.NumDests() != 2 || len(g.Nodes()) != 3 {
		t.Fatalf("unindexed node entered the graph: nodes %v, dests %v", g.Nodes(), g.Dests())
	}
	checkPositions(t, g)
	if _, err := BuildInto(g, ix, 1, []routing.Path{{1, 2}, {1, 2, 9}}); err == nil {
		t.Fatal("BuildInto accepted a path through an unindexed node")
	}
	if _, err := BuildInto(nil, ix, 9, nil); err == nil {
		t.Fatal("BuildInto accepted an unindexed root")
	}
}

// TestPositionTableThroughReuse keeps the position table coherent with
// the slot records through everything that reuses storage: a slot
// released and handed to another node, Clone (and mutating either
// copy), Reset, and BuildInto into a recycled graph over the same index
// and over another one.
func TestPositionTableThroughReuse(t *testing.T) {
	ix := topology.IndexOf([]routing.NodeID{1, 2, 3, 4, 5, 6})
	g := New(ix, 1)
	g.MarkDest(1)
	g.Apply(Delta{Adds: []LinkInfo{
		{Link: link(1, 2), ToIsDest: true},
		{Link: link(2, 3), ToIsDest: true},
		{Link: link(1, 4), ToIsDest: true},
	}})
	checkPositions(t, g)
	s3, _ := g.slot(3)

	// Node 3 leaves and 5 takes its slot: 5 resolves to it, 3 to nothing.
	g.RemoveLink(link(2, 3))
	g.Apply(Delta{Adds: []LinkInfo{{Link: link(4, 5), ToIsDest: true}}})
	checkPositions(t, g)
	if s5, ok := g.slot(5); !ok || s5 != s3 {
		t.Fatalf("5 took slot %d (%v), want the released slot %d", s5, ok, s3)
	}
	if g.IsDest(3) || g.HasLink(link(2, 3)) {
		t.Fatal("the slot's previous node still resolves")
	}
	if p, ok := g.DerivePath(5); !ok || !p.Equal(routing.Path{1, 4, 5}) {
		t.Fatalf("DerivePath(5) = %v, %v", p, ok)
	}

	// A clone resolves the same way and owns its table.
	c := g.Clone()
	checkPositions(t, c)
	c.RemoveLink(link(4, 5))
	c.AddLink(link(2, 6))
	checkPositions(t, c)
	checkPositions(t, g)
	if !g.HasLink(link(4, 5)) || g.HasLink(link(2, 6)) {
		t.Fatal("mutating the clone changed the original")
	}

	g.Reset(2)
	checkPositions(t, g)
	if g.Nodes()[0] != 2 || len(g.Nodes()) != 1 {
		t.Fatalf("reset graph holds %v", g.Nodes())
	}
	g.Apply(Delta{Adds: []LinkInfo{{Link: link(2, 6), ToIsDest: true}}})
	checkPositions(t, g)

	if _, err := BuildInto(g, ix, 1, []routing.Path{{1, 3}, {1, 3, 5}}); err != nil {
		t.Fatal(err)
	}
	checkPositions(t, g)
	wide := topology.IndexOf([]routing.NodeID{1, 3, 5, 7, 9, 11, 13})
	if _, err := BuildInto(g, wide, 13, []routing.Path{{13, 11}, {13, 11, 9}}); err != nil {
		t.Fatal(err)
	}
	checkPositions(t, g)
	if g.Index() != wide || g.IsDest(3) || !g.IsDest(9) {
		t.Fatalf("rebuilt over another index: index switched %v, dests %v", g.Index() == wide, g.Dests())
	}
}
