package topology

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"centaur/internal/routing"
)

func TestRelationshipInvert(t *testing.T) {
	tests := []struct{ in, want Relationship }{
		{RelCustomer, RelProvider},
		{RelProvider, RelCustomer},
		{RelPeer, RelPeer},
		{RelSibling, RelSibling},
	}
	for _, tt := range tests {
		if got := tt.in.Invert(); got != tt.want {
			t.Errorf("Invert(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestRelationshipValidity(t *testing.T) {
	for _, r := range []Relationship{RelCustomer, RelPeer, RelProvider, RelSibling} {
		if !r.IsValid() {
			t.Errorf("%v must be valid", r)
		}
		if strings.HasPrefix(r.String(), "relationship(") {
			t.Errorf("%v has no name", r)
		}
	}
	if Relationship(0).IsValid() || Relationship(9).IsValid() {
		t.Error("out-of-range relationships must be invalid")
	}
}

func TestAddEdgeAndViews(t *testing.T) {
	g := NewGraph(2)
	// 2 is the customer of 1.
	if err := g.AddEdge(1, 2, RelCustomer); err != nil {
		t.Fatal(err)
	}
	if rel, ok := g.Rel(1, 2); !ok || rel != RelCustomer {
		t.Fatalf("Rel(1,2) = %v, %v", rel, ok)
	}
	if rel, ok := g.Rel(2, 1); !ok || rel != RelProvider {
		t.Fatalf("Rel(2,1) = %v, %v — views must invert", rel, ok)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("counts: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}

func TestAddEdgeRejections(t *testing.T) {
	g := NewGraph(2)
	if err := g.AddEdge(1, 1, RelPeer); err == nil {
		t.Fatal("self-loop must be rejected")
	}
	if err := g.AddEdge(routing.None, 2, RelPeer); err == nil {
		t.Fatal("invalid endpoint must be rejected")
	}
	if err := g.AddEdge(1, 2, Relationship(99)); err == nil {
		t.Fatal("invalid relationship must be rejected")
	}
	if err := g.AddEdge(1, 2, RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 1, RelCustomer); err == nil {
		t.Fatal("duplicate edge must be rejected")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(1, 2, RelPeer); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveEdge(2, 1) {
		t.Fatal("removing an existing edge (either direction) must succeed")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("removing twice must report false")
	}
	if g.HasEdge(1, 2) || g.NumEdges() != 0 {
		t.Fatal("edge must be gone from both views")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(4)
	for _, nb := range []routing.NodeID{9, 3, 7, 5} {
		if err := g.AddEdge(1, nb, RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	nbs := g.Neighbors(1)
	for i := 1; i < len(nbs); i++ {
		if nbs[i-1].ID >= nbs[i].ID {
			t.Fatalf("neighbors not sorted: %v", nbs)
		}
	}
	if g.Degree(1) != 4 {
		t.Fatalf("Degree = %d", g.Degree(1))
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := NewGraph(3)
	// 1 is the customer of 3 (write it from 3's perspective).
	if err := g.AddEdge(3, 1, RelCustomer); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	if len(edges) != 1 {
		t.Fatalf("Edges = %v", edges)
	}
	e := edges[0]
	if e.A != 1 || e.B != 3 {
		t.Fatalf("edge must be canonical (low, high): %+v", e)
	}
	// From 1's view, 3 is the provider.
	if e.Rel != RelProvider {
		t.Fatalf("edge rel = %v, want provider", e.Rel)
	}
	if e.String() == "" {
		t.Fatal("edge must render")
	}
}

func TestStats(t *testing.T) {
	g := NewGraph(5)
	mustAdd(t, g, 1, 2, RelCustomer)
	mustAdd(t, g, 1, 3, RelPeer)
	mustAdd(t, g, 2, 4, RelSibling)
	mustAdd(t, g, 3, 4, RelProvider)
	s := g.Stats()
	if s.Nodes != 4 || s.Links != 4 || s.Provider != 2 || s.Peering != 1 || s.Sibling != 1 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("stats must render")
	}
}

func TestConnected(t *testing.T) {
	g := NewGraph(4)
	if !g.Connected() {
		t.Fatal("empty graph counts as connected")
	}
	mustAdd(t, g, 1, 2, RelPeer)
	mustAdd(t, g, 3, 4, RelPeer)
	if g.Connected() {
		t.Fatal("two components must not be connected")
	}
	mustAdd(t, g, 2, 3, RelPeer)
	if !g.Connected() {
		t.Fatal("bridged graph must be connected")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 1, 2, RelCustomer)
	cp := g.Clone()
	cp.RemoveEdge(1, 2)
	if !g.HasEdge(1, 2) {
		t.Fatal("mutating the clone must not affect the original")
	}
	if cp.NumEdges() != 0 || g.NumEdges() != 1 {
		t.Fatal("edge counts diverged incorrectly")
	}
}

func TestParseRelationshipsRoundTrip(t *testing.T) {
	input := `# CAIDA serial-1 sample
1|2|-1
2|3|0
3|4|2
1|5|-1
`
	g, err := ParseRelationships(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	// 1|2|-1 means 1 provides 2.
	if rel, _ := g.Rel(1, 2); rel != RelCustomer {
		t.Fatalf("Rel(1,2) = %v, want customer (2 is 1's customer)", rel)
	}
	if rel, _ := g.Rel(2, 3); rel != RelPeer {
		t.Fatalf("Rel(2,3) = %v, want peer", rel)
	}
	if rel, _ := g.Rel(3, 4); rel != RelSibling {
		t.Fatalf("Rel(3,4) = %v, want sibling", rel)
	}
	var buf bytes.Buffer
	if err := WriteRelationships(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ParseRelationships(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph size")
	}
	for _, e := range g.Edges() {
		if rel, ok := g2.Rel(e.A, e.B); !ok || rel != e.Rel {
			t.Fatalf("round trip lost edge %+v (got %v, %v)", e, rel, ok)
		}
	}
}

func TestParseRelationshipsErrors(t *testing.T) {
	for name, input := range map[string]string{
		"too few fields": "1|2\n",
		"bad AS":         "x|2|-1\n",
		"bad AS 2":       "1|y|-1\n",
		"bad code":       "1|2|7\n",
	} {
		if _, err := ParseRelationships(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestParseRelationshipsSkipsDuplicates(t *testing.T) {
	g, err := ParseRelationships(strings.NewReader("1|2|-1\n1|2|-1\n2|1|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("duplicates must be skipped, got %d edges", g.NumEdges())
	}
}

func TestIndex(t *testing.T) {
	g := NewGraph(3)
	mustAdd(t, g, 10, 20, RelPeer)
	mustAdd(t, g, 10, 5, RelCustomer)
	ix := NewIndex(g)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	// Positions are in ascending ID order.
	wantIDs := []routing.NodeID{5, 10, 20}
	for i, id := range wantIDs {
		if ix.ID(i) != id {
			t.Fatalf("ID(%d) = %v, want %v", i, ix.ID(i), id)
		}
		if ix.Pos(id) != i {
			t.Fatalf("Pos(%v) = %d, want %d", id, ix.Pos(id), i)
		}
	}
	if ix.Pos(99) != -1 {
		t.Fatal("unknown ID must map to -1")
	}
	if len(ix.IDs()) != 3 {
		t.Fatal("IDs length wrong")
	}
}

// TestIndexOf checks that an index of a bare ID list sorts it, indexes
// a repeated ID once, skips None and matches the index of a graph
// holding the same nodes.
func TestIndexOf(t *testing.T) {
	ix := IndexOf([]routing.NodeID{20, routing.None, 5, 10, 20, 5})
	if want := indexOf(t, 5, 10, 20); !slices.Equal(ix.IDs(), want.IDs()) {
		t.Fatalf("IndexOf IDs = %v, want %v", ix.IDs(), want.IDs())
	}
	if IndexOf(nil).Len() != 0 || IndexOf([]routing.NodeID{routing.None}).Len() != 0 {
		t.Fatal("an index of no valid IDs must be empty")
	}
}

// indexOf builds the index of a graph holding exactly ids.
func indexOf(t *testing.T, ids ...routing.NodeID) *Index {
	t.Helper()
	g := NewGraph(len(ids))
	for _, id := range ids {
		if err := g.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	return NewIndex(g)
}

// TestIndexPos covers both of Pos's paths — the dense one-comparison
// hit and the binary search — and every way an ID can be absent.
func TestIndexPos(t *testing.T) {
	dense := indexOf(t, 1, 2, 3, 4)
	sparse := indexOf(t, 1, 2, 3, 4_200_000_000)
	gapped := indexOf(t, 2, 3, 7, 8, 9)
	for _, tt := range []struct {
		name string
		ix   *Index
		id   routing.NodeID
		want int
	}{
		{"dense first", dense, 1, 0},
		{"dense last", dense, 4, 3},
		{"dense none", dense, routing.None, -1},
		{"dense above max", dense, 5, -1},
		{"sparse below gap", sparse, 3, 2},
		{"sparse far", sparse, 4_200_000_000, 3},
		{"sparse in gap", sparse, 70000, -1},
		{"sparse above max", sparse, 4_200_000_001, -1},
		{"sparse max uint32", sparse, ^routing.NodeID(0), -1},
		{"gapped first", gapped, 2, 0},
		{"gapped after gap", gapped, 8, 3},
		{"gapped in gap", gapped, 5, -1},
		{"gapped below min", gapped, 1, -1},
		{"gapped none", gapped, routing.None, -1},
		{"empty", indexOf(t), 1, -1},
	} {
		if got := tt.ix.Pos(tt.id); got != tt.want {
			t.Errorf("%s: Pos(%v) = %d, want %d", tt.name, tt.id, got, tt.want)
		}
	}
}

// TestIndexPosMatchesMap checks Pos against a map reference over random
// ID sets, from fully dense to widely spread, probing members and
// non-members alike.
func TestIndexPosMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		// IDs are drawn from [1, hi]: dense, half full, or scattered.
		hi := []int64{64, 128, 64_000, 1<<32 - 2}[trial%4]
		want := make(map[routing.NodeID]int)
		var ids []routing.NodeID
		for k := rng.Intn(64); k > 0; k-- {
			id := routing.NodeID(1 + rng.Int63n(hi))
			if _, dup := want[id]; !dup {
				want[id] = 0
				ids = append(ids, id)
			}
		}
		ix := indexOf(t, ids...)
		for i, id := range ix.IDs() {
			want[id] = i
		}
		probes := append([]routing.NodeID{routing.None, ^routing.NodeID(0)}, ids...)
		for k := 0; k < 64; k++ {
			probes = append(probes, routing.NodeID(rng.Int63n(hi+2)))
		}
		for _, id := range probes {
			p, ok := want[id]
			if !ok {
				p = -1
			}
			if got := ix.Pos(id); got != p {
				t.Fatalf("trial %d, ids %v: Pos(%v) = %d, want %d", trial, ix.IDs(), id, got, p)
			}
		}
	}
}

func mustAdd(t *testing.T, g *Graph, a, b routing.NodeID, rel Relationship) {
	t.Helper()
	if err := g.AddEdge(a, b, rel); err != nil {
		t.Fatal(err)
	}
}

// TestEdgesReturnsFreshSlice pins the aliasing contract documented on
// Edges: the returned slice is a fresh copy, so callers (the experiment
// harness shuffles flip schedules in place) cannot perturb the graph or
// later callers.
func TestEdgesReturnsFreshSlice(t *testing.T) {
	g := NewGraph(4)
	mustAdd(t, g, 1, 2, RelCustomer)
	mustAdd(t, g, 2, 3, RelPeer)
	mustAdd(t, g, 3, 4, RelProvider)
	first := g.Edges()
	// Clobber the caller's copy in place.
	for i, j := 0, len(first)-1; i < j; i, j = i+1, j-1 {
		first[i], first[j] = first[j], first[i]
	}
	first[0] = Edge{A: 99, B: 100}
	second := g.Edges()
	if len(second) != 3 {
		t.Fatalf("Edges = %v", second)
	}
	for i := 1; i < len(second); i++ {
		prev, cur := second[i-1], second[i]
		if prev.A > cur.A || (prev.A == cur.A && prev.B >= cur.B) {
			t.Fatalf("Edges no longer sorted after caller mutation: %v", second)
		}
	}
	if second[0].A == 99 {
		t.Fatal("Edges aliased the previously returned slice")
	}
}
