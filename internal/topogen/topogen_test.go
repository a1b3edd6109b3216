package topogen

import (
	"testing"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

func TestBRITEValidation(t *testing.T) {
	if _, err := BRITE(10, 0, 1); err == nil {
		t.Fatal("m=0 must be rejected")
	}
	if _, err := BRITE(2, 2, 1); err == nil {
		t.Fatal("n < m+2 must be rejected")
	}
}

func TestBRITEStructure(t *testing.T) {
	const n, m = 200, 2
	g, err := BRITE(n, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != n {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// BA edge count: seed clique + m per later node, plus the Tier-1
	// mesh completion.
	minEdges := (m+1)*m/2 + (n-m-1)*m
	if g.NumEdges() < minEdges {
		t.Fatalf("edges = %d, want >= %d", g.NumEdges(), minEdges)
	}
	if !g.Connected() {
		t.Fatal("BRITE topology must be connected")
	}
	s := g.Stats()
	if s.Peering == 0 || s.Provider == 0 {
		t.Fatalf("degenerate relationship mix: %+v", s)
	}
	if s.Sibling != 0 {
		t.Fatalf("BRITE mode has no siblings, got %d", s.Sibling)
	}
}

func TestBRITEDeterministic(t *testing.T) {
	a, err := BRITE(100, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BRITE(100, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c, err := BRITE(100, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Edges()) == len(ea) {
		same := true
		for i, e := range c.Edges() {
			if e != ea[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds should give different graphs")
		}
	}
}

// TestBRITEProviderHierarchyAcyclic: providers must always sit in a
// strictly more central tier, so following provider links never cycles.
func TestBRITEProviderHierarchyAcyclic(t *testing.T) {
	g, err := BRITE(150, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertProviderDAG(t, g)
}

func assertProviderDAG(t *testing.T, g *topology.Graph) {
	t.Helper()
	// Kahn's algorithm over customer->provider edges.
	indeg := make(map[routing.NodeID]int)
	for _, id := range g.Nodes() {
		indeg[id] = 0
	}
	for _, e := range g.Edges() {
		switch e.Rel {
		case topology.RelProvider: // B provides A: edge A -> B
			indeg[e.B]++
		case topology.RelCustomer: // B is customer of A: edge B -> A
			indeg[e.A]++
		}
	}
	queue := make([]routing.NodeID, 0, len(indeg))
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	removed := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		removed++
		for _, nb := range g.Neighbors(n) {
			// n's outgoing customer->provider edge goes to its provider.
			if nb.Rel == topology.RelProvider {
				indeg[nb.ID]--
				if indeg[nb.ID] == 0 {
					queue = append(queue, nb.ID)
				}
			}
		}
	}
	if removed != g.NumNodes() {
		t.Fatalf("provider hierarchy has a cycle: removed %d of %d", removed, g.NumNodes())
	}
}

func TestHierarchicalValidation(t *testing.T) {
	if _, err := Hierarchical(HierConfig{N: 4}); err == nil {
		t.Fatal("tiny N must be rejected")
	}
	if _, err := Hierarchical(HierConfig{N: 100, PeerFrac: 0.95}); err == nil {
		t.Fatal("absurd PeerFrac must be rejected")
	}
	if _, err := Hierarchical(HierConfig{N: 100, SiblingFrac: 0.9}); err == nil {
		t.Fatal("absurd SiblingFrac must be rejected")
	}
}

func TestCAIDALikeMix(t *testing.T) {
	g, err := CAIDALike(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.Nodes != 500 || !g.Connected() {
		t.Fatalf("bad topology: %+v connected=%v", s, g.Connected())
	}
	peerFrac := float64(s.Peering) / float64(s.Links)
	if peerFrac < 0.02 || peerFrac > 0.15 {
		t.Fatalf("CAIDA-like peering fraction %.3f off the Table 3 shape", peerFrac)
	}
	linksPerNode := float64(s.Links) / float64(s.Nodes)
	if linksPerNode < 1.5 || linksPerNode > 3.5 {
		t.Fatalf("links per node %.2f off the Table 3 shape (~2)", linksPerNode)
	}
	assertProviderDAG(t, g)
}

func TestHeTopLikeMix(t *testing.T) {
	g, err := HeTopLike(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	peerFrac := float64(s.Peering) / float64(s.Links)
	if peerFrac < 0.25 || peerFrac > 0.45 {
		t.Fatalf("HeTop-like peering fraction %.3f off the Table 3 shape (~0.35)", peerFrac)
	}
	assertProviderDAG(t, g)
}

func TestSiblingsArePairedStubs(t *testing.T) {
	g, err := Hierarchical(HierConfig{N: 400, SiblingFrac: 0.02, PeerFrac: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	siblings := 0
	for _, e := range g.Edges() {
		if e.Rel != topology.RelSibling {
			continue
		}
		siblings++
		// One endpoint must be single-homed behind the other: exactly
		// one edge (the sibling edge) or the sibling edge plus its own
		// customers... in this generator the rewired endpoint has ONLY
		// the sibling edge.
		da, db := g.Degree(e.A), g.Degree(e.B)
		if da != 1 && db != 1 {
			t.Fatalf("sibling pair %v: neither endpoint is single-homed (deg %d, %d)", e, da, db)
		}
	}
	if siblings == 0 {
		t.Fatal("no sibling edges generated")
	}
}

func TestFigureTopologies(t *testing.T) {
	g := Figure2a()
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("Figure2a: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if rel, ok := g.Rel(NodeD, NodeB); !ok || rel != topology.RelProvider {
		t.Fatalf("B must provide D, got %v, %v", rel, ok)
	}
}

func TestParametricShapes(t *testing.T) {
	if _, err := Chain(1); err == nil {
		t.Fatal("chain of 1 must be rejected")
	}
	chain, err := Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	if chain.NumEdges() != 3 {
		t.Fatalf("chain edges = %d", chain.NumEdges())
	}
	if rel, _ := chain.Rel(2, 1); rel != topology.RelProvider {
		t.Fatal("chain: node 1 must provide node 2")
	}

	if _, err := Star(1); err == nil {
		t.Fatal("star of 1 must be rejected")
	}
	star, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if star.Degree(1) != 4 {
		t.Fatalf("star center degree = %d", star.Degree(1))
	}

	if _, err := PeerClique(1); err == nil {
		t.Fatal("clique of 1 must be rejected")
	}
	clique, err := PeerClique(4)
	if err != nil {
		t.Fatal(err)
	}
	if clique.NumEdges() != 6 {
		t.Fatalf("clique edges = %d", clique.NumEdges())
	}

	if _, err := Tree(0, 1); err == nil {
		t.Fatal("degenerate tree must be rejected")
	}
	tree, err := Tree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 15 || tree.NumEdges() != 14 {
		t.Fatalf("tree size: %d nodes %d edges", tree.NumNodes(), tree.NumEdges())
	}
	assertProviderDAG(t, tree)
}

func TestAttachLeaves(t *testing.T) {
	g, err := BRITE(30, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumNodes()
	hosts := g.Nodes()[:3]
	leaves, err := AttachLeaves(g, hosts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 6 || g.NumNodes() != before+6 {
		t.Fatalf("leaves = %d, nodes %d -> %d", len(leaves), before, g.NumNodes())
	}
	for _, leaf := range leaves {
		if g.Degree(leaf) != 1 {
			t.Fatalf("leaf %v degree %d, want 1", leaf, g.Degree(leaf))
		}
		nb := g.Neighbors(leaf)[0]
		if nb.Rel != topology.RelProvider {
			t.Fatalf("leaf %v sees host as %v, want provider", leaf, nb.Rel)
		}
	}
	if _, err := AttachLeaves(g, hosts, 0); err == nil {
		t.Fatal("parts=0 must be rejected")
	}
	if _, err := AttachLeaves(g, []routing.NodeID{9999}, 1); err == nil {
		t.Fatal("unknown host must be rejected")
	}
	if !g.Connected() {
		t.Fatal("grafting must keep the graph connected")
	}
	assertProviderDAG(t, g)
}

// TestHierarchicalDeterministic pins same-seed reproducibility of the
// measured-like generator, including relationship annotations. (A map
// iteration in the provider-attachment loop once made same-seed graphs
// differ run to run, which in turn made every Table/Figure built on
// CAIDALike nondeterministic.)
func TestHierarchicalDeterministic(t *testing.T) {
	a, err := CAIDALike(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CAIDALike(300, 3)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
		ra, _ := a.Rel(ea[i].A, ea[i].B)
		rb, _ := b.Rel(eb[i].A, eb[i].B)
		if ra != rb {
			t.Fatalf("edge %d relationship differs: %v vs %v", i, ra, rb)
		}
	}
}
