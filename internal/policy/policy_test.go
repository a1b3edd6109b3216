package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

func TestClassOrdering(t *testing.T) {
	order := []RouteClass{ClassOwn, ClassCustomer, ClassSibling, ClassPeer, ClassProvider}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("class order broken at %v >= %v", order[i-1], order[i])
		}
	}
}

func TestClassOf(t *testing.T) {
	tests := []struct {
		rel  topology.Relationship
		want RouteClass
	}{
		{topology.RelCustomer, ClassCustomer},
		{topology.RelSibling, ClassSibling},
		{topology.RelPeer, ClassPeer},
		{topology.RelProvider, ClassProvider},
	}
	for _, tt := range tests {
		if got := ClassOf(tt.rel); got != tt.want {
			t.Errorf("ClassOf(%v) = %v, want %v", tt.rel, got, tt.want)
		}
	}
	if ClassOf(topology.Relationship(0)) != 0 {
		t.Error("invalid relationship must map to zero class")
	}
}

// TestExportRules enumerates the full Gao-Rexford export matrix.
func TestExportRules(t *testing.T) {
	pol := GaoRexford{}
	classes := []RouteClass{ClassOwn, ClassCustomer, ClassSibling, ClassPeer, ClassProvider}
	for _, cl := range classes {
		// Everything goes to customers and siblings.
		if !pol.Export(1, cl, topology.RelCustomer) {
			t.Errorf("%v route must be exportable to a customer", cl)
		}
		if !pol.Export(1, cl, topology.RelSibling) {
			t.Errorf("%v route must be exportable to a sibling", cl)
		}
	}
	for _, rel := range []topology.Relationship{topology.RelPeer, topology.RelProvider} {
		for _, cl := range []RouteClass{ClassOwn, ClassCustomer, ClassSibling} {
			if !pol.Export(1, cl, rel) {
				t.Errorf("%v route must be exportable to a %v", cl, rel)
			}
		}
		for _, cl := range []RouteClass{ClassPeer, ClassProvider} {
			if pol.Export(1, cl, rel) {
				t.Errorf("%v route must NOT be exportable to a %v (valley!)", cl, rel)
			}
		}
	}
	if pol.Export(1, ClassOwn, topology.Relationship(99)) {
		t.Error("unknown relationship must not be exportable")
	}
}

// TestGaoRexfordHasTwoExportClasses pins the grouping Centaur builds
// its export classes from: under every tie-break mode, customers and
// siblings are exported one set of route classes and peers and providers
// another.
func TestGaoRexfordHasTwoExportClasses(t *testing.T) {
	for _, mode := range []TieBreakMode{TieLowestVia, TieHashed, TieHashedPreferred, TieOverride} {
		pol := GaoRexford{TieBreak: mode}
		signature := func(rel topology.Relationship) (sig uint8) {
			for cl := ClassOwn; cl <= ClassProvider; cl++ {
				if pol.Export(7, cl, rel) {
					sig |= 1 << cl
				}
			}
			return sig
		}
		cust, sib := signature(topology.RelCustomer), signature(topology.RelSibling)
		peer, prov := signature(topology.RelPeer), signature(topology.RelProvider)
		if cust != sib || peer != prov || cust == peer {
			t.Errorf("%v: export signatures customer %b, sibling %b, peer %b, provider %b; want two classes, customer and sibling versus peer and provider",
				mode, cust, sib, peer, prov)
		}
	}
}

func TestAcceptRejectsLoops(t *testing.T) {
	pol := GaoRexford{}
	if pol.Accept(2, 3, routing.Path{3, 2, 5}) {
		t.Fatal("path containing self must be rejected")
	}
	if !pol.Accept(2, 3, routing.Path{3, 4, 5}) {
		t.Fatal("clean path must be accepted")
	}
}

func TestBetterClassDominates(t *testing.T) {
	pol := GaoRexford{}
	long := Candidate{Path: routing.Path{1, 2, 3, 4, 5, 6}, Class: ClassCustomer, Via: 2}
	short := Candidate{Path: routing.Path{1, 7, 6}, Class: ClassPeer, Via: 7}
	if !pol.Better(1, long, short) {
		t.Fatal("a customer route must beat a shorter peer route")
	}
	if pol.Better(1, short, long) {
		t.Fatal("Better must be asymmetric")
	}
}

func TestBetterLengthThenVia(t *testing.T) {
	pol := GaoRexford{}
	a := Candidate{Path: routing.Path{1, 2, 9}, Class: ClassCustomer, Via: 2}
	b := Candidate{Path: routing.Path{1, 3, 5, 9}, Class: ClassCustomer, Via: 3}
	if !pol.Better(1, a, b) {
		t.Fatal("shorter same-class route must win")
	}
	c := Candidate{Path: routing.Path{1, 3, 9}, Class: ClassCustomer, Via: 3}
	if !pol.Better(1, a, c) {
		t.Fatal("lowest via must win the final tie-break")
	}
}

// TestBetterIsStrictTotalOrder verifies, for every tie-break mode, the
// antisymmetry Best() and the solver rely on: for distinct candidates
// exactly one of Better(a,b) / Better(b,a) holds.
func TestBetterIsStrictTotalOrder(t *testing.T) {
	for _, mode := range []TieBreakMode{TieLowestVia, TieHashed, TieHashedPreferred, TieOverride} {
		pol := GaoRexford{TieBreak: mode}
		f := func(selfRaw, viaA, viaB uint16, lenA, lenB uint8, classA, classB uint8) bool {
			self := routing.NodeID(selfRaw%100 + 1)
			dest := routing.NodeID(999)
			mk := func(via routing.NodeID, n uint8, cl uint8) Candidate {
				p := routing.Path{self, via}
				for i := uint8(0); i < n%4; i++ {
					p = append(p, routing.NodeID(500+uint32(i)))
				}
				p = append(p, dest)
				return Candidate{Path: p, Class: RouteClass(cl%5 + 1), Via: via}
			}
			a := mk(routing.NodeID(viaA%50+101), lenA, classA)
			b := mk(routing.NodeID(viaB%50+101), lenB, classB)
			if a.Via == b.Via && a.Class == b.Class && a.Path.Len() == b.Path.Len() {
				// Identical rank: neither may be strictly better.
				return !pol.Better(self, a, b) && !pol.Better(self, b, a)
			}
			ab, ba := pol.Better(self, a, b), pol.Better(self, b, a)
			return ab != ba
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

// TestBetterIsStrictWeakOrder checks the order Policy.Better promises
// for every tie-break mode over random triples of candidates for one
// destination: irreflexive, transitive, and with transitive
// incomparability. Vias, classes and lengths are drawn from small sets,
// so equally ranked candidates with different paths are common.
func TestBetterIsStrictWeakOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, mode := range []TieBreakMode{TieLowestVia, TieHashed, TieHashedPreferred, TieOverride} {
		pol := GaoRexford{TieBreak: mode}
		incomparable := 0
		for i := 0; i < 20000; i++ {
			self := routing.NodeID(1 + rng.Intn(4))
			dest := routing.NodeID(900 + rng.Intn(3))
			mk := func() Candidate {
				via := routing.NodeID(101 + rng.Intn(3))
				p := routing.Path{via}
				for k := rng.Intn(3); k > 0; k-- {
					p = append(p, routing.NodeID(500+rng.Intn(4)))
				}
				return Candidate{Path: append(p, dest), Class: RouteClass(2 + rng.Intn(2)), Via: via}
			}
			a, b, c := mk(), mk(), mk()
			better := func(x, y Candidate) bool { return pol.Better(self, x, y) }
			inc := func(x, y Candidate) bool { return !better(x, y) && !better(y, x) }
			switch {
			case better(a, a):
				t.Fatalf("mode %v: %v is better than itself", mode, a)
			case better(a, b) && better(b, c) && !better(a, c):
				t.Fatalf("mode %v: %v > %v > %v but not %v > %v", mode, a, b, c, a, c)
			case inc(a, b) && inc(b, c) && !inc(a, c):
				t.Fatalf("mode %v: %v ~ %v ~ %v but not %v ~ %v", mode, a, b, c, a, c)
			}
			if inc(a, b) && !a.Path.Equal(b.Path) {
				incomparable++
			}
		}
		if incomparable == 0 {
			t.Fatalf("mode %v: no two different candidates ranked equal; the test shows nothing", mode)
		}
	}
}

func TestBestSelects(t *testing.T) {
	pol := GaoRexford{}
	if got := Best(pol, 1, nil); len(got.Path) != 0 {
		t.Fatal("Best of nothing must be empty")
	}
	cands := []Candidate{
		{}, // empty candidates are skipped
		{Path: routing.Path{1, 4, 9}, Class: ClassProvider, Via: 4},
		{Path: routing.Path{1, 2, 9}, Class: ClassCustomer, Via: 2},
		{Path: routing.Path{1, 3, 9}, Class: ClassPeer, Via: 3},
	}
	best := Best(pol, 1, cands)
	if best.Via != 2 {
		t.Fatalf("Best picked via %v, want the customer route", best.Via)
	}
}

func TestTieBreakModeString(t *testing.T) {
	for _, m := range []TieBreakMode{TieLowestVia, TieHashed, TieHashedPreferred, TieOverride} {
		if s := m.String(); s == "" || s[0] == 't' && s != "tiebreak(9)" && false {
			t.Errorf("mode %d has no name", m)
		}
	}
	if TieBreakMode(9).String() != "tiebreak(9)" {
		t.Errorf("unknown mode renders as %q", TieBreakMode(9).String())
	}
}

func TestTieHashDeterministicAndSpread(t *testing.T) {
	if TieHash(1, 2, 3) != TieHash(1, 2, 3) {
		t.Fatal("TieHash must be deterministic")
	}
	seen := make(map[uint64]bool)
	for via := routing.NodeID(1); via <= 64; via++ {
		seen[TieHash(7, via, 9)] = true
	}
	if len(seen) < 60 {
		t.Fatalf("TieHash collides too much: %d distinct of 64", len(seen))
	}
}

func TestValleyFree(t *testing.T) {
	g := topology.NewGraph(6)
	add := func(a, b routing.NodeID, rel topology.Relationship) {
		t.Helper()
		if err := g.AddEdge(a, b, rel); err != nil {
			t.Fatal(err)
		}
	}
	// 1 <- 2 <- 3 (provider chains), 1 -peer- 4, 4 <- 5, 2 -sib- 6.
	add(1, 2, topology.RelCustomer) // 2 is customer of 1
	add(2, 3, topology.RelCustomer)
	add(1, 4, topology.RelPeer)
	add(4, 5, topology.RelCustomer)
	add(2, 6, topology.RelSibling)

	tests := []struct {
		name string
		p    routing.Path
		want bool
	}{
		{"pure uphill", routing.Path{3, 2, 1}, true},
		{"pure downhill", routing.Path{1, 2, 3}, true},
		{"uphill peer downhill", routing.Path{3, 2, 1, 4, 5}, true},
		{"down then up (valley)", routing.Path{1, 2, 3}.Prepend(0), false}, // broken hop
		{"valley via customer", routing.Path{4, 1, 2}, true},               // peer then down: fine
		{"peer after downhill", routing.Path{2, 1, 4}, true},               // up then peer: fine
		{"downhill then uphill", routing.Path{3, 2, 6}, true},              // down? 3->2 is uphill; 2->6 sibling: fine
		{"nonexistent hop", routing.Path{1, 5}, false},
	}
	for _, tt := range tests {
		if got := ExportCompliant(g, tt.p); got != tt.want {
			t.Errorf("%s: ExportCompliant(%v) = %v, want %v", tt.name, tt.p, got, tt.want)
		}
	}
	// A genuine valley: down to 2, then up to 3's side — 1 -> 2 (down),
	// 2 -> 3 (down)… build one explicitly: 5 -> 4 (up), 4 -peer- ... use
	// peer-peer: 2 peer hops.
	g2 := topology.NewGraph(3)
	if err := g2.AddEdge(1, 2, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddEdge(2, 3, topology.RelPeer); err != nil {
		t.Fatal(err)
	}
	if ExportCompliant(g2, routing.Path{1, 2, 3}) {
		t.Error("two peer hops must not be valley-free")
	}
	g3 := topology.NewGraph(3)
	if err := g3.AddEdge(2, 1, topology.RelCustomer); err != nil { // 1 is customer of 2
		t.Fatal(err)
	}
	if err := g3.AddEdge(1, 3, topology.RelProvider); err != nil { // 3 is provider of 1
		t.Fatal(err)
	}
	if ExportCompliant(g3, routing.Path{2, 1, 3}) {
		t.Error("down-then-up must be a valley")
	}
}

// TestValleyFreeSiblingLaundering is the regression test for the
// phase-walk bug: a provider route laundered through a sibling pair is
// re-classified ClassSibling at the sibling and legally climbs to peers
// and providers again. The old implementation treated sibling edges as
// transparent and flagged the climb as a valley; the export-chain
// replay accepts it — and still catches a genuine leak on the same
// graph.
func TestValleyFreeSiblingLaundering(t *testing.T) {
	g := topology.NewGraph(6)
	add := func(a, b routing.NodeID, rel topology.Relationship) {
		t.Helper()
		if err := g.AddEdge(a, b, rel); err != nil {
			t.Fatal(err)
		}
	}
	add(2, 1, topology.RelCustomer) // 1 is customer of 2
	add(2, 3, topology.RelCustomer) // 3 is customer of 2
	add(3, 4, topology.RelSibling)  // 3 and 4 are siblings
	add(5, 4, topology.RelCustomer) // 4 is customer of 5
	add(6, 3, topology.RelCustomer) // 3 is customer of 6

	// 2 sends 1's route down to 3 (ClassProvider at 3); 3 hands it to
	// sibling 4 (ClassSibling at 4); 4 exports it UP to provider 5 —
	// legal, because sibling routes export everywhere.
	laundered := routing.Path{5, 4, 3, 2, 1}
	if !ExportCompliant(g, laundered) {
		t.Errorf("sibling-laundered path %v misflagged as a valley", laundered)
	}
	if !ExportCompliant(g, laundered) {
		t.Errorf("ExportCompliant rejects legal path %v", laundered)
	}
	// Without the sibling detour the same climb is a route leak: 3's
	// provider-learned route must not go to its other provider 6.
	leak := routing.Path{6, 3, 2, 1}
	if ExportCompliant(g, leak) {
		t.Errorf("provider→provider leak %v accepted", leak)
	}
	if hop, ok := ExportViolation(g, leak); ok || hop != 0 {
		t.Errorf("ExportViolation(%v) = (%d, %v), want hop 0 (3's export to 6)", leak, hop, ok)
	}
}
