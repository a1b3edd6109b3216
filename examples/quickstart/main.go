// Quickstart: the smallest end-to-end tour of the library.
//
// It builds the paper's Figure 2(a) topology, computes the converged
// policy routes three independent ways — the static solver, a simulated
// BGP network, and a simulated Centaur network — and shows they agree;
// then it peeks inside Centaur's data structures: node A's local P-graph
// and the downstream-link announcements it received from B.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// Figure 2(a): A provides B and C; D multi-homes under B and C.
	g := topogen.Figure2a()
	fmt.Println("Topology (paper Figure 2a):")
	for _, e := range g.Edges() {
		fmt.Printf("  %v\n", e)
	}
	nodes := g.Nodes()

	// 1. Ground truth: the static policy solver.
	sol, err := solver.Solve(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nConverged policy routes (static solver):")
	for _, from := range nodes {
		for _, to := range nodes {
			if from == to {
				continue
			}
			p, _ := sol.Path(from, to)
			fmt.Printf("  %v -> %v: %v  (%v route)\n", from, to, p, sol.Class(from, to))
		}
	}

	// 2. The same routes, reached by running the protocols.
	centaurNodes := make(map[routing.NodeID]*centaur.Node)
	buildCentaur := centaur.New(centaur.Config{})
	netC, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build: func(env sim.Env) sim.Protocol {
			n := buildCentaur(env)
			centaurNodes[env.Self()] = n.(*centaur.Node)
			return n
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tC, statsC, err := netC.RunToConvergence(1_000_000)
	if err != nil {
		log.Fatal(err)
	}

	bgpNodes := make(map[routing.NodeID]*bgp.Node)
	buildBGP := bgp.New(bgp.Config{})
	netB, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build: func(env sim.Env) sim.Protocol {
			n := buildBGP(env)
			bgpNodes[env.Self()] = n.(*bgp.Node)
			return n
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	tB, statsB, err := netB.RunToConvergence(1_000_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nCentaur cold start: converged at %v with %d update units\n", tC, statsC.Units)
	fmt.Printf("BGP     cold start: converged at %v with %d update units\n", tB, statsB.Units)

	mismatches := 0
	for _, from := range nodes {
		for _, to := range nodes {
			want, _ := sol.Path(from, to)
			if !centaurNodes[from].BestPath(to).Equal(want) || !bgpNodes[from].BestPath(to).Equal(want) {
				mismatches++
			}
		}
	}
	fmt.Printf("Routes agree across solver, BGP, and Centaur: %v\n", mismatches == 0)

	// 3. Inside Centaur at node A.
	a := centaurNodes[topogen.NodeA]
	fmt.Println("\nNode A's local P-graph (BuildGraph output, paper Table 2):")
	fmt.Print(indent(a.LocalGraph().String()))
	fmt.Println("P-graph announced by B to A (downstream links only — note no")
	fmt.Println("link involving C ever appears: B does not use C's links):")
	fmt.Print(indent(a.NeighborGraph(topogen.NodeB).String()))

	// 4. DerivePath (paper Table 1) reconstructs B's announced paths.
	gb := a.NeighborGraph(topogen.NodeB)
	for _, d := range gb.Dests() {
		p, ok := gb.DerivePath(d)
		fmt.Printf("DerivePath from B's announcements to %v: %v (ok=%v)\n", d, p, ok)
	}
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
