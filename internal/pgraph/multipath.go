package pgraph

import (
	"fmt"
	"sort"

	"centaur/internal/routing"
)

// Multipath support — the paper's §7 anticipates that "Centaur may
// better support multi-path routing since it can propagate multiple
// paths for a destination in a more compact and scalable way": the k
// selected paths of a destination share most of their links, so
// announcing the link union plus Permission Lists is smaller than k
// full path vectors.
//
// BuildMulti generalizes BuildGraph (Table 2) to path *sets* per
// destination, and DeriveMulti generalizes DerivePath (Table 1) to
// enumerate every policy-compliant path. One semantic difference from
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

// DeriveMulti enumerates every policy-compliant path from the root to
// dest derivable from the graph, up to limit paths (0 means no limit).
// Paths are returned sorted by their string form for determinism.
//
// For a graph built by BuildMulti the result is the selected path set
// of dest plus, possibly, *crossover mixtures*: when two selected paths
// of the same destination cross a shared segment with identical
// (destination, next-hop) keys, the per-dest-next encoding cannot tell
// their prefixes apart and both recombinations become derivable. This
// is inherent to the compact encoding — the paper's §4.1 falls back to
// exhaustive per-path encoding precisely to prove full expressiveness —
// and is generally harmless for multipath forwarding: every hop of a
// mixture lies on some path the announcer actually uses for that
// destination. Single-path-per-destination inputs never produce
// mixtures (the original round-trip invariant).
func (g *Graph) DeriveMulti(dest routing.NodeID, limit int) []routing.Path {
	if dest == g.root {
		return []routing.Path{{g.root}}
	}
	start, ok := g.slot(dest)
	if !ok || len(g.nodes.at(start).in) == 0 {
		return nil
	}
	var out []routing.Path
	// Backtrack from dest toward the root. suffix holds the nodes from
	// the current position down to dest (dest first); it doubles as the
	// loop check, paths being short.
	var walk func(cur int32, next routing.NodeID, suffix routing.Path)
	walk = func(cur int32, next routing.NodeID, suffix routing.Path) {
		if limit > 0 && len(out) >= limit {
			return
		}
		if cur == rootSlot {
			// Materialize root-first.
			p := make(routing.Path, len(suffix))
			for i, n := range suffix {
				p[len(suffix)-1-i] = n
			}
			out = append(out, p)
			return
		}
		nd := g.nodes.at(cur)
		for _, e := range nd.in {
			// An unrestricted link permits everything (received graphs
			// may carry them); a Permission List gates on (dest, next).
			if suffix.Contains(e.from) || (e.perm != nil && !e.perm.Permit(dest, next)) {
				continue
			}
			walk(e.slot, nd.id, append(suffix, e.from))
		}
	}
	walk(start, routing.None, append(make(routing.Path, 0, 8), dest))
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
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

// Compression is the path-vector-to-Centaur announcement size ratio
// (>1 means the link union is smaller).
func (c MultipathCost) Compression() float64 {
	if u := c.CentaurUnits(); u > 0 {
		return float64(c.PathVectorUnits) / float64(u)
	}
	return 0
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
