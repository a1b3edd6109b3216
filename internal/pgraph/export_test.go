package pgraph

import (
	"slices"
	"sort"

	"centaur/internal/routing"
)

// Graph, View and Permission List queries that only tests read: the
// oracles the package's property and model tests check the code
// against, and AddLink/SetPermission/UnmarkDest for building and
// editing graphs by hand.

// Clone returns an independent copy of the LinkInfo.
func (li LinkInfo) Clone() LinkInfo {
	out := li
	out.Perm = append([]PermEntry(nil), li.Perm...)
	out.Filters = cloneFilters(li.Filters)
	return out
}

// AddLink inserts directed link l; it reports whether l was newly added.
// A link with an endpoint outside the graph's index is not added.
func (g *Graph) AddLink(l routing.Link) bool {
	if !l.IsValid() {
		return false
	}
	_, _, added, _ := g.insertLink(l)
	return added
}

// Parents returns the upstream neighbors of n in ascending order, as a
// fresh slice.
func (g *Graph) Parents(n routing.NodeID) []routing.NodeID {
	s, ok := g.slot(n)
	if !ok || len(g.nodes.at(s).in) == 0 {
		return nil
	}
	in := g.nodes.at(s).in
	out := make([]routing.NodeID, len(in))
	for i, e := range in {
		out[i] = e.from
	}
	return out
}

// InDegree returns the number of links pointing at n. A node with
// InDegree > 1 is "multi-homed" in the paper's terms (§3.2.4).
func (g *Graph) InDegree(n routing.NodeID) int {
	if s, ok := g.slot(n); ok {
		return len(g.nodes.at(s).in)
	}
	return 0
}

// MultiHomed reports whether n has more than one parent in the graph.
func (g *Graph) MultiHomed(n routing.NodeID) bool { return g.InDegree(n) > 1 }

// UnmarkDest removes n's destination mark.
func (g *Graph) UnmarkDest(n routing.NodeID) {
	if s, ok := g.slot(n); ok {
		g.setDest(s, false)
		g.gc(s) // a node held only by its mark leaves the graph with it
	}
}

// NumDests returns the number of marked destinations.
func (g *Graph) NumDests() int { return g.nDests }

// SetPermission attaches pl to link l, replacing any existing list. A
// nil or empty pl clears the restriction. The list lives on the link's
// record, so l must be present; setting one on an absent link is a
// no-op.
func (g *Graph) SetPermission(l routing.Link, pl *PermissionList) {
	if e := g.edgeOf(l); e != nil {
		if pl != nil && pl.Empty() {
			pl = nil
		}
		g.setPerm(e, pl)
	}
}

// Counter returns the number of selected paths using link l, maintained
// by BuildGraph for Δ computation in the steady phase (paper §4.3.2).
func (g *Graph) Counter(l routing.Link) int {
	if e := g.edgeOf(l); e != nil {
		return int(e.counter)
	}
	return 0
}

// Links returns every directed link in the graph, sorted.
func (g *Graph) Links() []routing.Link {
	out := make([]routing.Link, 0, g.nLinks)
	g.eachLink(func(l routing.Link, _ *node, _ *edge) { out = append(out, l) })
	return out
}

// Nodes returns every node that is an endpoint of at least one link (or
// the root), in ascending order.
func (g *Graph) Nodes() []routing.NodeID {
	out := make([]routing.NodeID, 0, g.nodes.len())
	for s := int32(0); s < g.nodes.n; s++ {
		if nd := g.nodes.at(s); s == rootSlot || len(nd.in) > 0 || len(nd.out) > 0 {
			out = append(out, nd.id)
		}
	}
	slices.Sort(out)
	return out
}

// DestsBelow returns the marked destinations reachable from n by
// following child links (including n itself if marked), ascending. This
// is the set of destinations whose derivations can be influenced by a
// change at n — the incremental recompute mode uses it to bound the
// affected destination set after applying a delta.
func (g *Graph) DestsBelow(n routing.NodeID) []routing.NodeID {
	out := g.AppendDestsBelow(nil, n)
	slices.Sort(out)
	return out
}

// Equal reports whether two graphs have the same root, links, Permission
// Lists, and destination marks (counters are bookkeeping and ignored).
func (g *Graph) Equal(other *Graph) bool {
	if g.root != other.root || g.nLinks != other.nLinks || g.nDests != other.nDests || g.nPerms != other.nPerms {
		return false
	}
	for s := int32(0); s < g.nodes.n; s++ {
		nd := g.nodes.at(s)
		if !nd.id.IsValid() {
			continue
		}
		os, ok := other.slot(nd.id)
		if !ok {
			return false
		}
		ond := other.nodes.at(os)
		if nd.dest != ond.dest || len(nd.in) != len(ond.in) {
			return false
		}
		for i, e := range nd.in {
			if oe := ond.in[i]; e.from != oe.from || !e.perm.Equal(oe.perm) {
				return false
			}
		}
	}
	return true
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

// Compression is the path-vector-to-Centaur announcement size ratio
// (>1 means the link union is smaller).
func (c MultipathCost) Compression() float64 {
	if u := c.CentaurUnits(); u > 0 {
		return float64(c.PathVectorUnits) / float64(u)
	}
	return 0
}

// Equal reports whether two lists permit exactly the same path set. A
// nil list equals an empty one. The compressed representation is an
// encoding of the pairs, not extra state, so it does not participate.
func (pl *PermissionList) Equal(other *PermissionList) bool {
	var a, b []PermEntry
	if pl != nil {
		a = pl.pairs
	}
	if other != nil {
		b = other.pairs
	}
	return slices.Equal(a, b)
}

// Path returns the currently announced path for dest (nil if none).
func (v *View) Path(dest routing.NodeID) routing.Path {
	if s, ok := v.g.slot(dest); ok {
		return v.at(s).path
	}
	return nil
}
