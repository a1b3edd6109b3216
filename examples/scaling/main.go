// Scaling: a compact version of the paper's Figure 8 — how the per-event
// update overhead of Centaur and BGP grows with topology size.
//
// For each size it cold-starts both protocols on the same BRITE
// topology, flips a sample of links (fail, reconverge, restore,
// reconverge), and reports the mean update units and wire messages per
// routing event. The batching advantage of link-level deltas grows with
// the topology.
//
// Run with:
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"

	"centaur/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")

	res, err := experiments.Figure8(experiments.Scenario{
		Sizes:        []int{50, 100, 200, 400},
		LinksPerNode: 2,
		Flips:        15,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)
	fmt.Println("\nunits  = elementary announcements (per-destination for BGP,")
	fmt.Println("         per-link for Centaur)")
	fmt.Println("msgs   = wire messages (Centaur batches one delta per neighbor")
	fmt.Println("         per round; the ratio widens with size — Figure 8's claim)")
}
