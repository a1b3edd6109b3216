// Permissionlist: a guided tour of the paper's key data structure,
// on the exact scenario of Figure 4.
//
// Node C prefers the long path <C,A,B,D> to reach D, but uses its direct
// link for D' (<C,D,D'>). That makes D multi-homed in C's local P-graph,
// so a naive link-level announcement would let an upstream node derive
// the policy-violating path <C,D>. The Permission List on the
// exceptional link C->D — "destination D', next hop D'" — is what rules
// it out (paper §3.2.4, §4.1, Figure 4(c)).
//
// Run with:
//
//	go run ./examples/permissionlist
package main

import (
	"fmt"
	"log"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

// Node names matching the paper's Figure 4.
const (
	A  routing.NodeID = 1
	B  routing.NodeID = 2
	C  routing.NodeID = 3
	D  routing.NodeID = 4
	DP routing.NodeID = 5 // D'
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("permissionlist: ")

	// C's selected path set, exactly as in Figure 4: the long route to
	// D, the direct route to D'.
	selected := map[routing.NodeID]routing.Path{
		A:  {C, A},
		B:  {C, A, B},
		D:  {C, A, B, D},
		DP: {C, D, DP},
	}
	fmt.Println("C's selected paths (Figure 4):")
	for _, d := range []routing.NodeID{A, B, D, DP} {
		fmt.Printf("  to %v: %v\n", d, selected[d])
	}

	// BuildGraph (paper Table 2).
	g, err := pgraph.Build(C, selected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nC's local P-graph (note D has two parents, B and C):")
	fmt.Print(g)

	// The Permission List lands on the exceptional link C->D and permits
	// exactly the D' path; the primary link B->D stays unrestricted.
	pl := g.Permission(routing.Link{From: C, To: D})
	fmt.Printf("\nPermission List on C->D: %v\n", pl)
	fmt.Printf("Permission List on B->D: %v (primary in-link, unrestricted)\n",
		g.Permission(routing.Link{From: B, To: D}))

	// DerivePath (paper Table 1) reconstructs exactly the selected
	// paths...
	fmt.Println("\nDerivePath round trip:")
	for _, d := range []routing.NodeID{A, B, D, DP} {
		p, ok := g.DerivePath(d)
		fmt.Printf("  %v: %v (ok=%v, matches=%v)\n", d, p, ok, p.Equal(selected[d]))
	}

	// ...and the policy-violating two-hop path <C,D> is NOT derivable:
	// the backtrace from D is steered through B by the Permission List.
	p, _ := g.DerivePath(D)
	fmt.Printf("\npolicy-violating <C,D> derivable? %v (derived %v instead)\n",
		p.Equal(routing.Path{C, D}), p)

	// What the upstream node A can reconstruct if C exports this graph:
	// announcements carry links plus Permission Lists; A assembles them
	// and derives. (In the protocol, C's Gao-Rexford export filter to a
	// provider would actually prune the non-customer routes; here we
	// export everything to show the data structure's own guarantee.)
	// A's graph resolves nodes through the index of the announcing graph,
	// which holds every node the links name.
	announced := g.LinkInfos()
	atA := pgraph.New(g.Index(), C)
	atA.MarkDest(C)
	atA.Apply(pgraph.Delta{Adds: announced})
	fmt.Println("\nupstream reconstruction from the announced links:")
	for _, d := range []routing.NodeID{A, B, D, DP} {
		p, ok := atA.DerivePath(d)
		fmt.Printf("  %v: %v (ok=%v)\n", d, p, ok)
	}
	fmt.Println("\nObservation 1 holds: the upstream node recovers exactly the")
	fmt.Println("paths C uses — nothing more — and can loop-check against them.")
}
