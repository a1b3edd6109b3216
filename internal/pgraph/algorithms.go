package pgraph

import (
	"fmt"
	"slices"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// DerivePath reconstructs the unique policy-compliant path from the
// graph's root to dest (paper Table 1). It backtraces from dest along
// parent links: at a single-homed node it follows the only parent; at a
// multi-homed node it follows the parent link whose Permission List
// permits (dest, next), where next is the node the backtrace arrived
// from (routing.None when the multi-homed node is dest itself).
//
// The boolean result is false when no policy-compliant path exists —
// dest is absent, a node on the way up has no (permitted) parent, or the
// backtrace would loop.
func (g *Graph) DerivePath(dest routing.NodeID) (routing.Path, bool) {
	return g.DerivePathWith(dest, nil)
}

// DerivePathWith is DerivePath with a link filter: links for which skip
// returns true are treated as absent. Centaur uses this to suppress
// links known (via root cause notification) to have failed without
// mutating the neighbor's announced graph — the announcement contract
// stays intact and derivation simply avoids the dead links.
func (g *Graph) DerivePathWith(dest routing.NodeID, skip func(routing.Link) bool) (routing.Path, bool) {
	p, ok, _ := g.derivePath(dest, skip)
	return p, ok
}

// DenialReason classifies why a derivation returned no path. The
// adversarial detector uses it to split *structural* denials — the
// graph simply admits no compliant path to the destination, which is
// how Permission Lists confine leaked announcements — from denials a
// Bloom-compressed list's false positive caused, so containment
// numbers are not polluted by FP accounting (and vice versa).
type DenialReason uint8

const (
	// DenialNone: the derivation succeeded.
	DenialNone DenialReason = iota
	// DenialAbsent: dest has no in-links in the graph at all.
	DenialAbsent
	// DenialUnreachable: the backtrace reached a node with no usable
	// in-link — the announced subtree is not rooted at the graph root
	// (the signature of a replayed/leaked announcement chain).
	DenialUnreachable
	// DenialLoop: the step budget was exhausted (malformed graph).
	DenialLoop
	// DenialNoPermit: a restricted node's Permission Lists admit no
	// parent and no unrestricted in-link exists.
	DenialNoPermit
	// DenialAmbiguous: no Permission List admits a parent and several
	// unrestricted in-links compete — no unique compliant path.
	DenialAmbiguous
)

// String names the reason.
func (r DenialReason) String() string {
	switch r {
	case DenialNone:
		return "none"
	case DenialAbsent:
		return "absent"
	case DenialUnreachable:
		return "unreachable"
	case DenialLoop:
		return "loop"
	case DenialNoPermit:
		return "no-permit"
	case DenialAmbiguous:
		return "ambiguous"
	default:
		return fmt.Sprintf("denial(%d)", uint8(r))
	}
}

// DerivePathReason is DerivePath returning, on failure, why the
// derivation was denied.
func (g *Graph) DerivePathReason(dest routing.NodeID) (routing.Path, bool, DenialReason) {
	return g.derivePath(dest, nil)
}

// derivePath resolves dest and backtraces from its slot.
func (g *Graph) derivePath(dest routing.NodeID, skip func(routing.Link) bool) (routing.Path, bool, DenialReason) {
	if s, ok := g.slot(dest); ok {
		return g.deriveSlot(s, skip)
	}
	tele.deriveCalls.Inc()
	return nil, false, DenialAbsent
}

// deriveSlot is the backtrace core of DerivePathWith, from the slot of
// the destination. It only reads the graph, and its one allocation is
// the returned path.
func (g *Graph) deriveSlot(cur int32, skip func(routing.Link) bool) (routing.Path, bool, DenialReason) {
	tele.deriveCalls.Inc()
	dest := g.nodes.at(cur).id
	if cur == rootSlot {
		return routing.Path{g.root}, true, DenialNone
	}
	if len(g.nodes.at(cur).in) == 0 {
		return nil, false, DenialAbsent
	}
	// Backtrace produces the path reversed (dest first); reverse at the
	// end. Inter-domain paths are short, so the work buffer normally
	// stays on the stack. A step budget of nLinks+1 bounds the walk: any
	// longer chain must revisit a link, i.e. the graph is malformed
	// (loop detection without a visited set).
	var buf [24]routing.NodeID
	reversed := append(buf[:0], dest)
	steps := g.nLinks + 1
	next := routing.None // current's successor on the path being rebuilt
	for cur != rootSlot {
		if steps--; steps < 0 {
			return nil, false, DenialLoop
		}
		nd := g.nodes.at(cur)
		var parent *edge
		switch {
		case len(nd.in) == 0:
			return nil, false, DenialUnreachable
		case skip == nil && len(nd.in) == 1 && nd.in[0].perm == nil:
			parent = &nd.in[0]
		default:
			// Multi-homed (or restricted) node: a parent link whose
			// Permission List explicitly permits (dest, next) wins;
			// otherwise the path falls through to the node's unique
			// unrestricted (primary) in-link, the paper's Figure 4(c)
			// semantics. No explicit permit and zero or several
			// unrestricted links means no derivable path. Skipped
			// (failed) links are treated as absent throughout.
			var unrestricted *edge
			ambiguous := false
			for i := range nd.in {
				e := &nd.in[i]
				l := routing.Link{From: e.from, To: nd.id}
				if skip != nil && skip(l) {
					continue
				}
				if e.perm == nil {
					if unrestricted != nil {
						ambiguous = true
					}
					unrestricted = e
					continue
				}
				ok, fp := e.perm.PermitReport(dest, next)
				if fp {
					noteFPHit()
					if g.fpObserver != nil {
						g.fpObserver(l, dest, next)
					}
				}
				if ok {
					parent = e
					break
				}
			}
			if parent == nil {
				if unrestricted == nil {
					return nil, false, DenialNoPermit
				}
				if ambiguous {
					return nil, false, DenialAmbiguous
				}
				parent = unrestricted
			}
		}
		reversed = append(reversed, parent.from)
		next = nd.id
		cur = parent.slot
	}
	// Reverse into source-first order.
	path := make(routing.Path, len(reversed))
	for i, n := range reversed {
		path[len(reversed)-1-i] = n
	}
	return path, true, DenialNone
}

// DeriveAllInto derives the policy-compliant path for every marked
// destination into a map keyed by destination; destinations with no
// derivable path are omitted. out, when non-nil, is cleared and refilled
// instead of allocating a fresh map: batch consumers that derive every
// destination repeatedly (analysis sweeps, per-flip re-derivation) use
// this to hold per-call allocation to the result paths themselves.
func (g *Graph) DeriveAllInto(out map[routing.NodeID]routing.Path) map[routing.NodeID]routing.Path {
	if out == nil {
		out = make(map[routing.NodeID]routing.Path, g.nDests)
	} else {
		clear(out)
	}
	for s := int32(0); s < g.nodes.n; s++ {
		if nd := g.nodes.at(s); nd.dest {
			if p, ok, _ := g.deriveSlot(s, nil); ok {
				out[nd.id] = p
			}
		}
	}
	return out
}

// Build constructs a local P-graph with Permission Lists from a selected
// path set (paper Table 2's BuildGraph). paths maps each destination to
// the single selected path from root to it; every path must start at
// root and end at its destination, and be loop-free.
//
// Per DESIGN.md §2.5, construction is multi-pass: the paper's pseudocode
// attaches a Permission List entry only at the moment a link insertion
// makes a node multi-homed, which would leave paths inserted earlier
// without entries and make them underivable. Pass one inserts all links
// and maintains the per-link selected-path counters (§4.3.2). Pass two
// picks each multi-homed node's primary in-link, which stays
// unrestricted: the paper's Figure 4(c) restricts only the exceptional
// link (C->D) and leaves the default parent (B->D) alone, and
// DerivePath falls through to the unique unrestricted in-link when no
// Permission List matches. Choosing the in-link that carries the most
// selected paths minimizes total Permission List size — this is what
// keeps the paper's Table 5 entry counts small: the bulk subtree
// fan-out rides the unrestricted link, and only exceptional paths are
// enumerated. Pass three attaches one per-dest-next entry for every
// selected path segment that crosses a multi-homed node over a
// non-primary in-link.
//
// The graph resolves node IDs through an index of the paths' own nodes;
// BuildInto takes the network's index instead.
func Build(root routing.NodeID, paths map[routing.NodeID]routing.Path) (*Graph, error) {
	list := make([]routing.Path, 0, len(paths))
	for dest, p := range paths {
		if p.Dest() != dest || len(p) == 0 {
			return nil, validatePath(root, dest, p)
		}
		list = append(list, p)
	}
	return BuildInto(nil, indexOfPaths(root, list), root, list)
}

// indexOfPaths returns the index of root and every node on paths.
func indexOfPaths(root routing.NodeID, paths []routing.Path) *topology.Index {
	ids := []routing.NodeID{root}
	for _, p := range paths {
		ids = append(ids, p...)
	}
	return topology.IndexOf(ids)
}

// BuildInto is Build with caller-owned storage, node IDs resolved
// through ix, and the path set as a list, one path per destination. g,
// when non-nil, is emptied and refilled instead of allocating a fresh
// graph, keeping its slot records and edge capacity, and its position
// table when ix is its index, so a sweep that builds one P-graph after
// another allocates only their Permission Lists. Nodes take their slots
// in list order, which is why the input is not a map (DESIGN.md
// "Figure 5 accounting"). A path through a node outside ix is an error.
// Whatever g held is gone, also on error.
func BuildInto(g *Graph, ix *topology.Index, root routing.NodeID, paths []routing.Path) (*Graph, error) {
	tele.builds.Inc()
	if ix.Pos(root) < 0 {
		return nil, fmt.Errorf("pgraph: root %v is not in the index", root)
	}
	if g == nil {
		g = New(ix, root)
	} else {
		g.reset(ix, root, true)
	}
	g.setDest(rootSlot, true)
	// Pass one: links, destination marks, counters. hops records the slot
	// of every path node, so the later passes need no lookups; it and the
	// primaries live in the traversal scratch, which Build never walks.
	hops := g.stack[:0]
	for _, p := range paths {
		if err := validatePath(root, p.Dest(), p); err != nil {
			return nil, err
		}
		marked := g.nDests
		var err error
		if hops, err = g.addPath(p, hops); err != nil {
			return nil, err
		}
		if g.nDests == marked && len(p) > 1 {
			return nil, fmt.Errorf("pgraph: two paths for destination %v", p.Dest())
		}
	}
	g.stack = hops[:0]
	g.appendPairs(hops, g.pickPrimaries())
	g.sealPerms()
	return g, nil
}

// addPath inserts p's links, counts p on each of them, marks p's
// destination, and appends the slot of every node of p to hops. A node
// outside the index is an error, with p partly inserted.
func (g *Graph) addPath(p routing.Path, hops []int32) ([]int32, error) {
	cur := int32(rootSlot)
	hops = append(hops, cur)
	for i := 1; i < len(p); i++ {
		var at int
		var ok bool
		if cur, at, _, ok = g.insertLink(routing.Link{From: p[i-1], To: p[i]}); !ok {
			return hops, fmt.Errorf("pgraph: path %v: %v is not in the index", p, p[i])
		}
		g.nodes.at(cur).in[at].counter++
		hops = append(hops, cur)
	}
	g.setDest(cur, true)
	return hops, nil
}

// Per-slot layouts other than "position of the primary in-edge".
const (
	singleHomed   = -1 // the node's in-links carry no Permission Lists
	allRestricted = -2 // multi-homed, every in-link restricted (multipath)
)

// pickPrimaries returns, per slot, the position of the multi-homed
// node's primary in-edge — the one with the most selected paths, ties
// to the lowest parent ID — and singleHomed for every other node.
func (g *Graph) pickPrimaries() []int32 {
	primary := slices.Grow(g.found[:0], g.nodes.len())[:g.nodes.len()]
	g.found = primary[:0]
	for s := int32(0); s < g.nodes.n; s++ {
		primary[s] = singleHomed
		if in := g.nodes.at(s).in; len(in) > 1 {
			primary[s] = int32(primaryEdge(in))
		}
	}
	return primary
}

// primaryEdge returns the position of the in-edge with the highest
// counter; in-edges ascend by parent, so ties keep the lowest ID.
func primaryEdge(in []edge) int {
	best := 0
	for i := range in {
		if in[i].counter > in[best].counter {
			best = i
		}
	}
	return best
}

// appendPairs appends, for every path addPath recorded in hops, its
// (dest, next) pair to the Permission List of every in-edge of the path
// that enters a multi-homed node other than through its primary; layout
// is pickPrimaries' per-slot result. A path starts at the root slot and
// never returns to it, which is what separates the paths in hops. The
// lists are left unsorted; sealPerms finishes them.
func (g *Graph) appendPairs(hops, layout []int32) {
	for len(hops) > 0 {
		n := 1
		for n < len(hops) && hops[n] != rootSlot {
			n++
		}
		dest := g.nodes.at(hops[n-1]).id
		for i := 1; i < n; i++ {
			s := hops[i]
			if layout[s] == singleHomed {
				continue
			}
			nd := g.nodes.at(s)
			at, _ := nd.inEdge(g.nodes.at(hops[i-1]).id)
			if int32(at) == layout[s] {
				continue
			}
			e := &nd.in[at]
			if e.perm == nil {
				g.setPerm(e, &PermissionList{})
			}
			next := routing.None
			if i+1 < n {
				next = g.nodes.at(hops[i+1]).id
			}
			e.perm.pairs = append(e.perm.pairs, PermEntry{Dest: dest, Next: next})
		}
		hops = hops[n:]
	}
}

// sealPerms sorts the Permission Lists bulk construction filled.
func (g *Graph) sealPerms() {
	for s := int32(0); s < g.nodes.n; s++ {
		for _, e := range g.nodes.at(s).in {
			if e.perm != nil {
				e.perm.setPairs(e.perm.pairs)
			}
		}
	}
}

func validatePath(root, dest routing.NodeID, p routing.Path) error {
	switch {
	case len(p) == 0:
		return fmt.Errorf("pgraph: empty path for destination %v", dest)
	case p.Source() != root:
		return fmt.Errorf("pgraph: path %v for %v does not start at root %v", p, dest, root)
	case p.Dest() != dest:
		return fmt.Errorf("pgraph: path %v does not end at its destination %v", p, dest)
	case p.HasLoop():
		return fmt.Errorf("pgraph: path %v for %v contains a loop", p, dest)
	}
	return nil
}

// LinkInfo is the announcement unit for a single downstream link: the
// link itself, whether its head node is a destination (prefix owner,
// §3.2.1), and the Permission List pairs attached to it (§4.1). It is
// what travels inside Centaur update messages and what export views are
// diffed over.
type LinkInfo struct {
	Link     routing.Link
	ToIsDest bool
	Perm     []PermEntry // sorted by (Next, Dest); nil when unrestricted
	// Filters is the Bloom-compressed Permission List (§4.1), sorted by
	// Next. When set, the wire layer serializes it instead of Perm; a
	// simulated receiver keeps both so the explicit pairs act as the
	// false-positive oracle, while a pure wire consumer sees only this.
	Filters []DestFilter
}

// Equal reports whether two LinkInfo values announce identical state.
func (li LinkInfo) Equal(other LinkInfo) bool {
	if li.Link != other.Link || li.ToIsDest != other.ToIsDest || len(li.Perm) != len(other.Perm) ||
		len(li.Filters) != len(other.Filters) {
		return false
	}
	for i := range li.Perm {
		if li.Perm[i] != other.Perm[i] {
			return false
		}
	}
	for i := range li.Filters {
		if !li.Filters[i].Equal(other.Filters[i]) {
			return false
		}
	}
	return true
}

// String renders the announced link with its flags.
func (li LinkInfo) String() string {
	s := li.Link.String()
	if li.ToIsDest {
		s += "[dest]"
	}
	if len(li.Perm) > 0 {
		s += fmt.Sprintf("%v", li.Perm)
	}
	return s
}

// LinkInfos exports the graph's links as announcement units, sorted by
// link for deterministic diffing.
func (g *Graph) LinkInfos() []LinkInfo {
	out := make([]LinkInfo, 0, g.nLinks)
	g.eachLink(func(l routing.Link, head *node, e *edge) {
		out = append(out, linkInfoOf(l, head, e))
	})
	return out
}

// linkInfoOf materializes the announced state of one link (copying the
// Permission List pairs, which mutate in place).
func linkInfoOf(l routing.Link, head *node, e *edge) LinkInfo {
	li := LinkInfo{Link: l, ToIsDest: head.dest}
	if e.perm != nil && e.perm.NumPairs() > 0 {
		li.Perm = e.perm.Pairs()
	}
	return li
}

// Delta is the incremental difference between two announced views of a
// P-graph: links to add or re-announce with new attributes (Adds) and
// links withdrawn entirely (Removes). It corresponds to the paper's Δ_B
// (§4.3.2).
type Delta struct {
	Adds    []LinkInfo
	Removes []routing.Link
}

// Empty reports whether the delta carries no changes.
func (d Delta) Empty() bool { return len(d.Adds) == 0 && len(d.Removes) == 0 }

// Size returns the number of per-link announcement units in the delta,
// the quantity Centaur's message counting is based on.
func (d Delta) Size() int { return len(d.Adds) + len(d.Removes) }

// Diff computes the delta that transforms the announced view old into
// the announced view new. A link present in both but with changed
// attributes (destination mark or Permission List) appears in Adds as a
// re-announcement. Either argument may be nil, meaning an empty view.
//
// Views are normally in canonical order (LinkInfos, ExportedView), and
// then the diff is one merge pass; anything else is ordered first, a
// repeated link keeping its last announcement.
func Diff(oldView, newView []LinkInfo) Delta {
	oldView, newView = canonicalView(oldView), canonicalView(newView)
	var d Delta
	i, j := 0, 0
	for i < len(oldView) || j < len(newView) {
		c := 1 // old exhausted: the new link is an addition
		switch {
		case j == len(newView):
			c = -1
		case i < len(oldView):
			c = linkCompare(oldView[i].Link, newView[j].Link)
		}
		switch {
		case c < 0:
			d.Removes = append(d.Removes, oldView[i].Link)
			i++
		case c > 0:
			d.Adds = append(d.Adds, newView[j])
			j++
		default:
			if !oldView[i].Equal(newView[j]) {
				d.Adds = append(d.Adds, newView[j])
			}
			i++
			j++
		}
	}
	return d
}

// canonicalView returns view ordered strictly ascending by link. The
// input is returned as is when it already is.
func canonicalView(view []LinkInfo) []LinkInfo {
	canonical := true
	for i := 1; i < len(view) && canonical; i++ {
		canonical = linkCompare(view[i-1].Link, view[i].Link) < 0
	}
	if canonical {
		return view
	}
	sorted := slices.Clone(view)
	slices.SortStableFunc(sorted, func(a, b LinkInfo) int { return linkCompare(a.Link, b.Link) })
	out := sorted[:0]
	for i, li := range sorted {
		if i+1 < len(sorted) && sorted[i+1].Link == li.Link {
			continue // superseded by a later announcement of the same link
		}
		out = append(out, li)
	}
	return out
}

// Apply merges a received delta into the graph, implementing the
// receiver-side update of §4.3.2: adds insert or re-announce links
// (replacing their Permission Lists and destination marks), removes
// withdraw links. Links whose removal isolates a node drop that node's
// bookkeeping. An add whose link is invalid or has an endpoint outside
// the graph's index is skipped.
func (g *Graph) Apply(d Delta) {
	for _, l := range d.Removes {
		g.RemoveLink(l)
	}
	for _, li := range d.Adds {
		if !li.Link.IsValid() {
			continue
		}
		to, i, _, ok := g.insertLink(li.Link)
		if !ok {
			continue
		}
		g.setDest(to, li.ToIsDest)
		var pl *PermissionList
		if len(li.Perm) > 0 || len(li.Filters) > 0 {
			pl = &PermissionList{filters: cloneFilters(li.Filters)}
			pl.setPairs(slices.Clone(li.Perm))
		}
		g.setPerm(&g.nodes.at(to).in[i], pl)
	}
}

// AppendReannounced tells whether applying li re-announces a link g
// already holds in a way derivation can follow destination by
// destination: the link stays restricted (an explicit Permission List on
// both sides) or stays unrestricted, and no Bloom filter is involved on
// either side. Then the in-edges derivation counts at the head, and
// which of them are unrestricted, stay the same; only a Permission List
// answer can change, and only for the (dest, next) pairs the old and the
// new list do not share. So the derivations li can change are those of
// the destinations of that symmetric difference, plus the head's own
// when its destination mark flips: AppendReannounced appends those to
// dst (possibly repeated, in no particular order) and reports true. For
// any other add — a new link, a flip between restricted and
// unrestricted, a Bloom-compressed list, pairs out of canonical order —
// it returns dst unchanged and false, and the caller must scope li by
// what lies below its head.
func (g *Graph) AppendReannounced(dst []routing.NodeID, li LinkInfo) ([]routing.NodeID, bool) {
	to, i, ok := g.link(li.Link)
	if !ok {
		return dst, false
	}
	head := g.nodes.at(to)
	e := &head.in[i]
	if (e.perm == nil) != (len(li.Perm) == 0) || len(li.Filters) > 0 || (e.perm != nil && e.perm.filters != nil) {
		return dst, false
	}
	var old []PermEntry
	if e.perm != nil {
		old = e.perm.pairs
	}
	for k := 1; k < len(li.Perm); k++ {
		if comparePerm(li.Perm[k-1], li.Perm[k]) >= 0 {
			return dst, false
		}
	}
	if head.dest != li.ToIsDest {
		dst = append(dst, head.id)
	}
	// Merge the two ascending lists, keeping what only one of them has.
	a, b := old, li.Perm
	for len(a) > 0 && len(b) > 0 {
		switch c := comparePerm(a[0], b[0]); {
		case c < 0:
			dst, a = append(dst, a[0].Dest), a[1:]
		case c > 0:
			dst, b = append(dst, b[0].Dest), b[1:]
		default:
			a, b = a[1:], b[1:]
		}
	}
	for _, p := range a {
		dst = append(dst, p.Dest)
	}
	for _, p := range b {
		dst = append(dst, p.Dest)
	}
	return dst, true
}
