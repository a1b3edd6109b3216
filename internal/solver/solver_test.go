package solver

import (
	"testing"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

func TestSolveEmptyTopology(t *testing.T) {
	if _, err := Solve(topology.NewGraph(0)); err == nil {
		t.Fatal("Solve of an empty topology must fail")
	}
}

func TestSolveChain(t *testing.T) {
	// 1 provides 2 provides 3: all routes are the chain itself.
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		from, to routing.NodeID
		want     routing.Path
		class    policy.RouteClass
	}{
		{1, 3, routing.Path{1, 2, 3}, policy.ClassCustomer},
		{3, 1, routing.Path{3, 2, 1}, policy.ClassProvider},
		{2, 1, routing.Path{2, 1}, policy.ClassProvider},
		{2, 3, routing.Path{2, 3}, policy.ClassCustomer},
	}
	for _, tt := range tests {
		p, ok := s.Path(tt.from, tt.to)
		if !ok || !p.Equal(tt.want) {
			t.Errorf("Path(%v,%v) = %v, %v; want %v", tt.from, tt.to, p, ok, tt.want)
		}
		if got := s.Class(tt.from, tt.to); got != tt.class {
			t.Errorf("Class(%v,%v) = %v, want %v", tt.from, tt.to, got, tt.class)
		}
	}
}

func TestSolveSelfRoute(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := s.Path(1, 1); !ok || !p.Equal(routing.Path{1}) {
		t.Fatalf("Path to self = %v, %v; want <N1>, true", p, ok)
	}
	if got := s.Class(1, 1); got != policy.ClassOwn {
		t.Fatalf("Class to self = %v, want own", got)
	}
}

func TestSolvePeerValley(t *testing.T) {
	// 1 —peer— 2 —peer— 3: a two-peer-hop path is a valley, so 1 and 3
	// must be mutually unreachable while both reach 2.
	g := topology.NewGraph(3)
	mustEdge(t, g, 1, 2, topology.RelPeer)
	mustEdge(t, g, 2, 3, topology.RelPeer)
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Reachable(1, 3) || s.Reachable(3, 1) {
		t.Fatal("two peer hops must not be reachable under Gao-Rexford")
	}
	if !s.Reachable(1, 2) || !s.Reachable(3, 2) {
		t.Fatal("single peer hops must be reachable")
	}
}

func TestSolveCustomerPreferredOverPeerAndProvider(t *testing.T) {
	// Node 1 can reach 4 via customer 2 (longer) or via peer 3 (shorter).
	// Gao-Rexford prefers the customer route regardless of length.
	//
	//     1 --peer-- 3
	//     |(cust 2)   \(cust 4)
	//     2 --cust 5-- ... 5 --cust 4
	g := topology.NewGraph(5)
	mustEdge(t, g, 1, 2, topology.RelCustomer) // 2 is customer of 1
	mustEdge(t, g, 1, 3, topology.RelPeer)
	mustEdge(t, g, 3, 4, topology.RelCustomer) // 4 is customer of 3
	mustEdge(t, g, 2, 5, topology.RelCustomer) // 5 is customer of 2
	mustEdge(t, g, 5, 4, topology.RelCustomer) // 4 is customer of 5
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := s.Path(1, 4)
	if !ok {
		t.Fatal("1 must reach 4")
	}
	want := routing.Path{1, 2, 5, 4}
	if !p.Equal(want) {
		t.Fatalf("Path(1,4) = %v, want customer route %v over the shorter peer route", p, want)
	}
	if got := s.Class(1, 4); got != policy.ClassCustomer {
		t.Fatalf("Class(1,4) = %v, want customer", got)
	}
}

func TestSolveTieBreakLowestVia(t *testing.T) {
	// Two equal-class equal-length routes: the lower neighbor ID wins.
	// 4 is a customer of both 2 and 3; 1 provides both 2 and 3.
	g := topology.NewGraph(4)
	mustEdge(t, g, 1, 2, topology.RelCustomer)
	mustEdge(t, g, 1, 3, topology.RelCustomer)
	mustEdge(t, g, 2, 4, topology.RelCustomer)
	mustEdge(t, g, 3, 4, topology.RelCustomer)
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := s.Path(1, 4)
	if !ok || !p.Equal(routing.Path{1, 2, 4}) {
		t.Fatalf("Path(1,4) = %v, %v; want tie-break through N2", p, ok)
	}
}

func TestSolveSiblingTransits(t *testing.T) {
	// Siblings re-export everything: a route learned from a sibling is
	// exportable to a provider, unlike a peer-learned route.
	//
	//   3 --provider-- 1 --sibling-- 2 --customer-- 4
	g := topology.NewGraph(4)
	mustEdge(t, g, 1, 3, topology.RelProvider) // 3 provides 1
	mustEdge(t, g, 1, 2, topology.RelSibling)
	mustEdge(t, g, 2, 4, topology.RelCustomer) // 4 is customer of 2
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	// 3 must reach 4: 3 -> 1 (customer leg) -> 2 (sibling leg) -> 4.
	p, ok := s.Path(3, 4)
	if !ok || !p.Equal(routing.Path{3, 1, 2, 4}) {
		t.Fatalf("Path(3,4) = %v, %v; sibling must transit", p, ok)
	}
	// And 4 reaches 3 the other way.
	if p, ok := s.Path(4, 3); !ok || !p.Equal(routing.Path{4, 2, 1, 3}) {
		t.Fatalf("Path(4,3) = %v, %v", p, ok)
	}
}

func TestSolveFigure2aFullReachability(t *testing.T) {
	g := topogen.Figure2a()
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	for _, from := range nodes {
		for _, to := range nodes {
			if !s.Reachable(from, to) {
				t.Errorf("%v cannot reach %v", from, to)
			}
		}
	}
	// D is multi-homed below B and C; B is the lower-ID tie-break.
	if p, _ := s.Path(topogen.NodeA, topogen.NodeD); !p.Equal(routing.Path{topogen.NodeA, topogen.NodeB, topogen.NodeD}) {
		t.Errorf("Path(A,D) = %v, want <A,B,D>", p)
	}
}

// TestSolveAllPathsValleyFree checks policy compliance of every selected
// path on generated topologies (DESIGN.md invariant 2).
func TestSolveAllPathsValleyFree(t *testing.T) {
	for _, gen := range []struct {
		name string
		make func() (*topology.Graph, error)
	}{
		{"brite", func() (*topology.Graph, error) { return topogen.BRITE(120, 2, 1) }},
		{"caida-like", func() (*topology.Graph, error) { return topogen.CAIDALike(150, 2) }},
		{"hetop-like", func() (*topology.Graph, error) { return topogen.HeTopLike(150, 3) }},
	} {
		t.Run(gen.name, func(t *testing.T) {
			g, err := gen.make()
			if err != nil {
				t.Fatal(err)
			}
			s, err := Solve(g)
			if err != nil {
				t.Fatal(err)
			}
			nodes := g.Nodes()
			checked := 0
			for _, from := range nodes {
				for _, to := range nodes {
					p, ok := s.Path(from, to)
					if !ok {
						continue
					}
					if p.HasLoop() {
						t.Fatalf("path %v has a loop", p)
					}
					if !policy.ExportCompliant(g, p) {
						t.Fatalf("path %v is not valley-free", p)
					}
					if p.Len() != s.Dist(from, to) {
						t.Fatalf("path %v length %d != Dist %d", p, p.Len(), s.Dist(from, to))
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no paths checked")
			}
		})
	}
}

// TestSolveGeneratedFullReachability: the generators guarantee
// policy-connectedness (see topogen doc comment).
func TestSolveGeneratedFullReachability(t *testing.T) {
	g, err := topogen.BRITE(200, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Nodes() {
			if !s.Reachable(from, to) {
				t.Fatalf("%v cannot reach %v in a BRITE topology", from, to)
			}
		}
	}
}

// TestSolvePathSet exercises the Table 2 input production.
func TestSolvePathSet(t *testing.T) {
	g := topogen.Figure2a()
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	ps := s.PathSet(topogen.NodeA)
	if len(ps) != 3 {
		t.Fatalf("PathSet(A) has %d paths, want 3", len(ps))
	}
	for d, p := range ps {
		if p.Source() != topogen.NodeA || p.Dest() != d {
			t.Fatalf("PathSet path %v keyed by %v is malformed", p, d)
		}
	}
}

func mustEdge(t *testing.T, g *topology.Graph, a, b routing.NodeID, rel topology.Relationship) {
	t.Helper()
	if err := g.AddEdge(a, b, rel); err != nil {
		t.Fatal(err)
	}
}

// TestSolveOptsTieBreakModes: every within-class preference model must
// yield a valid (loop-free, valley-free, fully reachable on generated
// topologies) and deterministic solution.
func TestSolveOptsTieBreakModes(t *testing.T) {
	g, err := topogen.CAIDALike(120, 17)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[policy.TieBreakMode]routing.Path)
	for _, mode := range []policy.TieBreakMode{
		policy.TieLowestVia, policy.TieHashed, policy.TieHashedPreferred, policy.TieOverride,
	} {
		s1, err := SolveOpts(g, Options{TieBreak: mode})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if got := s1.Options().TieBreak; got != mode {
			t.Fatalf("Options().TieBreak = %v, want %v", got, mode)
		}
		if got := s1.Policy().TieBreak; got != mode {
			t.Fatalf("Policy().TieBreak = %v, want %v", got, mode)
		}
		s2, err := SolveOpts(g, Options{TieBreak: mode})
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		for _, from := range nodes {
			for _, to := range nodes {
				p1, ok1 := s1.Path(from, to)
				p2, ok2 := s2.Path(from, to)
				if ok1 != ok2 || !p1.Equal(p2) {
					t.Fatalf("mode %v not deterministic at %v->%v: %v vs %v", mode, from, to, p1, p2)
				}
				if !ok1 {
					t.Fatalf("mode %v: %v cannot reach %v", mode, from, to)
				}
				if p1.HasLoop() || !policy.ExportCompliant(g, p1) {
					t.Fatalf("mode %v: invalid path %v", mode, p1)
				}
			}
		}
		seen[mode] = mustPath(t, s1, nodes[len(nodes)/3], nodes[2*len(nodes)/3])
	}
	// The modes must not all collapse to the same selection (otherwise
	// the Tables 4-5 sensitivity analysis would be measuring nothing).
	distinct := make(map[string]bool)
	for _, p := range seen {
		distinct[p.String()] = true
	}
	if len(distinct) < 2 {
		t.Log("note: all modes picked the same path for the probe pair (possible but unusual)")
	}
}

func mustPath(t *testing.T, s *Solution, from, to routing.NodeID) routing.Path {
	t.Helper()
	p, ok := s.Path(from, to)
	if !ok {
		t.Fatalf("no path %v->%v", from, to)
	}
	return p
}

// TestSolutionAccessors covers the small read API.
func TestSolutionAccessors(t *testing.T) {
	g := topogen.Figure2a()
	s, err := Solve(g)
	if err != nil {
		t.Fatal(err)
	}
	if s.Topology() != g {
		t.Fatal("Topology accessor broken")
	}
	if s.Index().Len() != 4 {
		t.Fatalf("Index len = %d", s.Index().Len())
	}
	if s.Dist(topogen.NodeA, topogen.NodeD) != 2 {
		t.Fatalf("Dist(A,D) = %d, want 2", s.Dist(topogen.NodeA, topogen.NodeD))
	}
	if s.Dist(99, topogen.NodeD) != 0 || s.Class(99, topogen.NodeD) != 0 {
		t.Fatal("unknown node must answer zero values")
	}
	if s.NextHop(topogen.NodeA, topogen.NodeA) != topogen.NodeA {
		t.Fatal("next hop to self must be self")
	}
	if _, ok := s.Path(99, 1); ok {
		t.Fatal("path from unknown node must fail")
	}
}
