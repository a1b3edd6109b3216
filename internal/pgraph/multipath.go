package pgraph

import (
	"fmt"

	"centaur/internal/routing"
)

// Multipath support — the paper's §7 anticipates that "Centaur may
// better support multi-path routing since it can propagate multiple
// paths for a destination in a more compact and scalable way": the k
// selected paths of a destination share most of their links, so
// announcing the link union plus Permission Lists is smaller than k
// full path vectors.
//
// BuildMulti generalizes Build (Table 2) to path *sets* per
// destination; its tests enumerate every policy-compliant path back out
// of the graph to check the round trip. One semantic difference from
// the single-path construction: no primary in-link is left
// unrestricted, because "fall through to the unrestricted link" is only
// unambiguous when each destination has exactly one path — in a
// multipath graph every in-link of a multi-homed node carries an
// explicit Permission List and derivation follows exactly the permitted
// parents.

// BuildMulti constructs a P-graph from a set of selected paths per
// destination. Every path must start at root, end at its destination,
// and be loop-free; the paths of one destination must be distinct.
func BuildMulti(root routing.NodeID, paths map[routing.NodeID][]routing.Path) (*Graph, error) {
	var all []routing.Path
	for _, set := range paths {
		all = append(all, set...)
	}
	g := New(indexOfPaths(root, all), root)
	g.setDest(rootSlot, true)
	var hops []int32
	for dest, set := range paths {
		seen := make(map[string]struct{}, len(set))
		for _, p := range set {
			if err := validatePath(root, dest, p); err != nil {
				return nil, err
			}
			key := p.String()
			if _, dup := seen[key]; dup {
				return nil, fmt.Errorf("pgraph: duplicate path %v for destination %v", p, dest)
			}
			seen[key] = struct{}{}
			// Every node of p is in the graph's index, which is built from them.
			hops, _ = g.addPath(p, hops)
		}
	}
	// Permission List entries at multi-homed nodes, for every path of
	// every destination; no primary-link stripping (see package note).
	restrict := make([]int32, g.nodes.len())
	for s := int32(0); s < g.nodes.n; s++ {
		restrict[s] = singleHomed
		if len(g.nodes.at(s).in) > 1 {
			restrict[s] = allRestricted
		}
	}
	g.appendPairs(hops, restrict)
	g.sealPerms()
	return g, nil
}

// MultipathCost summarizes the announcement cost of a multipath
// selection, for the §7 compactness comparison.
type MultipathCost struct {
	// PathVectorUnits is what a path-vector protocol announces: one
	// node entry per hop of every selected path of every destination.
	PathVectorUnits int
	// CentaurLinks is the number of distinct links in the P-graph
	// union announcement.
	CentaurLinks int
	// CentaurPermissionPairs is the number of (dest, next) Permission
	// List pairs riding on those links.
	CentaurPermissionPairs int
}

// CentaurUnits is the total Centaur announcement size: links plus
// Permission List pairs.
func (c MultipathCost) CentaurUnits() int {
	return c.CentaurLinks + c.CentaurPermissionPairs
}

// MultipathCompactness builds the multipath P-graph for a selected path
// set and returns the cost comparison against per-path announcement.
func MultipathCompactness(root routing.NodeID, paths map[routing.NodeID][]routing.Path) (MultipathCost, *Graph, error) {
	g, err := BuildMulti(root, paths)
	if err != nil {
		return MultipathCost{}, nil, err
	}
	var cost MultipathCost
	for _, set := range paths {
		for _, p := range set {
			cost.PathVectorUnits += len(p)
		}
	}
	cost.CentaurLinks = g.NumLinks()
	for _, lp := range g.PermissionLists() {
		cost.CentaurPermissionPairs += lp.Perm.NumPairs()
	}
	return cost, g, nil
}
