package pgraph

// The map-backed P-graph this package used before slot-indexed storage,
// kept verbatim (minus telemetry, Bloom filters and the accessors no
// test needs) as the reference model the property tests in
// model_prop_test.go drive the real implementation against.

import (
	"slices"
	"sort"

	"centaur/internal/routing"
)

type refPermList struct {
	byNext map[routing.NodeID]map[routing.NodeID]struct{}
	pairs  int
}

// Add records that the path to dest whose next hop (after the
// multi-homed node) is next may use the link. Adding a duplicate pair is
// a no-op.
func (pl *refPermList) Add(dest, next routing.NodeID) {
	if pl.byNext == nil {
		pl.byNext = make(map[routing.NodeID]map[routing.NodeID]struct{}, 2)
	}
	dests, ok := pl.byNext[next]
	if !ok {
		dests = make(map[routing.NodeID]struct{}, 4)
		pl.byNext[next] = dests
	}
	if _, dup := dests[dest]; !dup {
		dests[dest] = struct{}{}
		pl.pairs++
	}
}

// Remove deletes the (dest, next) pair; it reports whether the pair was
// present.
func (pl *refPermList) Remove(dest, next routing.NodeID) bool {
	dests, ok := pl.byNext[next]
	if !ok {
		return false
	}
	if _, ok := dests[dest]; !ok {
		return false
	}
	delete(dests, dest)
	if len(dests) == 0 {
		delete(pl.byNext, next)
	}
	pl.pairs--
	return true
}

// Permit reports whether the path to dest via next hop next is allowed
// to use the link (paper Table 1, line 8).
func (pl *refPermList) Permit(dest, next routing.NodeID) bool {
	dests, ok := pl.byNext[next]
	if !ok {
		return false
	}
	_, ok = dests[dest]
	return ok
}

// Empty reports whether the list permits no paths at all. A list
// carrying only a compressed representation (a pure wire consumer's
// view) is not empty: it still restricts derivation.
func (pl *refPermList) Empty() bool { return pl.pairs == 0 }

// Pairs returns every (dest, next) pair sorted by (next, dest), for
// deterministic wire encoding and comparison.
func (pl *refPermList) Pairs() []PermEntry {
	out := make([]PermEntry, 0, pl.pairs)
	for next, dests := range pl.byNext {
		for dest := range dests {
			out = append(out, PermEntry{Dest: dest, Next: next})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Next != out[j].Next {
			return out[i].Next < out[j].Next
		}
		return out[i].Dest < out[j].Dest
	})
	return out
}

type refGraph struct {
	root     routing.NodeID
	parents  map[routing.NodeID][]routing.NodeID // incoming neighbors, sorted
	children map[routing.NodeID][]routing.NodeID // outgoing neighbors, sorted
	perms    map[routing.Link]*refPermList
	dests    map[routing.NodeID]struct{}
	counters map[routing.Link]int // selected paths per link (paper §4.3.2)
	nLinks   int

	// DFS scratch reused across DestsBelow calls.
	dbSeen  map[routing.NodeID]struct{}
	dbStack []routing.NodeID
}

// New returns an empty P-graph rooted at root.
func newRefGraph(root routing.NodeID) *refGraph {
	return &refGraph{
		root:     root,
		parents:  make(map[routing.NodeID][]routing.NodeID),
		children: make(map[routing.NodeID][]routing.NodeID),
		perms:    make(map[routing.Link]*refPermList),
		dests:    make(map[routing.NodeID]struct{}),
		counters: make(map[routing.Link]int),
	}
}

// HasLink reports whether directed link l is present.
func (g *refGraph) HasLink(l routing.Link) bool {
	return refContains(g.children[l.From], l.To)
}

// AddLink inserts directed link l; it reports whether l was newly added.
func (g *refGraph) AddLink(l routing.Link) bool {
	if !l.IsValid() || g.HasLink(l) {
		return false
	}
	g.children[l.From] = refInsertSorted(g.children[l.From], l.To)
	g.parents[l.To] = refInsertSorted(g.parents[l.To], l.From)
	g.nLinks++
	return true
}

// RemoveLink deletes directed link l along with its Permission List and
// counter; it reports whether l was present. Nodes left with no incident
// links are dropped from the graph (and lose their destination mark).
func (g *refGraph) RemoveLink(l routing.Link) bool {
	if !g.HasLink(l) {
		return false
	}
	g.children[l.From] = refRemoveSorted(g.children[l.From], l.To)
	g.parents[l.To] = refRemoveSorted(g.parents[l.To], l.From)
	delete(g.perms, l)
	delete(g.counters, l)
	g.nLinks--
	g.gcNode(l.From)
	g.gcNode(l.To)
	return true
}

// gcNode drops bookkeeping for a node with no remaining links. The root
// keeps its destination mark even when isolated: the announcing neighbor
// itself remains a reachable destination.
func (g *refGraph) gcNode(n routing.NodeID) {
	if len(g.children[n]) == 0 && len(g.parents[n]) == 0 {
		delete(g.children, n)
		delete(g.parents, n)
		if n != g.root {
			delete(g.dests, n)
		}
	}
}

// Parents returns the sorted upstream neighbors of n. The slice is owned
// by the graph and must not be modified.
func (g *refGraph) Parents(n routing.NodeID) []routing.NodeID { return g.parents[n] }

// Children returns the sorted downstream neighbors of n. The slice is
// owned by the graph and must not be modified.
func (g *refGraph) Children(n routing.NodeID) []routing.NodeID { return g.children[n] }

// MarkDest marks n as a destination (prefix owner).
func (g *refGraph) MarkDest(n routing.NodeID) {
	if n.IsValid() {
		g.dests[n] = struct{}{}
	}
}

// UnmarkDest removes n's destination mark.
func (g *refGraph) UnmarkDest(n routing.NodeID) { delete(g.dests, n) }

// IsDest reports whether n is marked as a destination.
func (g *refGraph) IsDest(n routing.NodeID) bool {
	_, ok := g.dests[n]
	return ok
}

// Dests returns the marked destinations in ascending order.
func (g *refGraph) Dests() []routing.NodeID {
	out := make([]routing.NodeID, 0, len(g.dests))
	for d := range g.dests {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// DestsBelow returns the marked destinations reachable from n by
// following child links (including n itself if marked), ascending. This
// is the set of destinations whose derivations can be influenced by a
// change at n — the incremental recompute mode uses it to bound the
// affected destination set after applying a delta.
func (g *refGraph) DestsBelow(n routing.NodeID) []routing.NodeID {
	if len(g.children[n]) == 0 && len(g.parents[n]) == 0 && !g.IsDest(n) {
		return nil
	}
	if g.dbSeen == nil {
		g.dbSeen = make(map[routing.NodeID]struct{})
	} else {
		clear(g.dbSeen)
	}
	seen := g.dbSeen
	seen[n] = struct{}{}
	stack := append(g.dbStack[:0], n)
	var out []routing.NodeID
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.IsDest(cur) {
			out = append(out, cur)
		}
		for _, c := range g.children[cur] {
			if _, ok := seen[c]; !ok {
				seen[c] = struct{}{}
				stack = append(stack, c)
			}
		}
	}
	g.dbStack = stack
	slices.Sort(out)
	return out
}

func refContains(list []routing.NodeID, n routing.NodeID) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= n })
	return i < len(list) && list[i] == n
}

func refInsertSorted(list []routing.NodeID, n routing.NodeID) []routing.NodeID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= n })
	if i < len(list) && list[i] == n {
		return list
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

func refRemoveSorted(list []routing.NodeID, n routing.NodeID) []routing.NodeID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= n })
	if i >= len(list) || list[i] != n {
		return list
	}
	return append(list[:i], list[i+1:]...)
}

func refLinkLess(a, b routing.Link) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	return a.To < b.To
}

// derivePath is the backtrace core of DerivePathWith. scratch, when
// non-nil, is reused as the reversed-path work buffer; the (possibly
// grown) buffer is returned so batch callers (DeriveAllInto) amortize
// it across destinations. The returned path never aliases scratch.
func (g *refGraph) derivePath(dest routing.NodeID, skip func(routing.Link) bool, scratch routing.Path) (routing.Path, bool, DenialReason, routing.Path) {
	if dest == g.root {
		return routing.Path{g.root}, true, DenialNone, scratch
	}
	if len(g.parents[dest]) == 0 {
		return nil, false, DenialAbsent, scratch
	}
	// Backtrace produces the path reversed (dest first); reverse at the
	// end. A step budget of nLinks+1 bounds the walk: any longer chain
	// must revisit a link, i.e. the graph is malformed (loop detection
	// without allocating a visited set).
	reversed := scratch[:0]
	if reversed == nil {
		reversed = make(routing.Path, 0, 8)
	}
	reversed = append(reversed, dest)
	steps := g.nLinks + 1
	current := dest
	next := routing.None // current's successor on the path being rebuilt
	for current != g.root {
		if steps--; steps < 0 {
			return nil, false, DenialLoop, reversed
		}
		parents := g.parents[current]
		var parent routing.NodeID
		switch {
		case len(parents) == 0:
			return nil, false, DenialUnreachable, reversed
		case skip == nil && len(parents) == 1 && g.perms[routing.Link{From: parents[0], To: current}] == nil:
			parent = parents[0]
		default:
			// Multi-homed (or restricted) node: a parent link whose
			// Permission List explicitly permits (dest, next) wins;
			// otherwise the path falls through to the node's unique
			// unrestricted (primary) in-link, the paper's Figure 4(c)
			// semantics. No explicit permit and zero or several
			// unrestricted links means no derivable path. Skipped
			// (failed) links are treated as absent throughout.
			parent = routing.None
			unrestricted := routing.None
			ambiguous := false
			for _, p := range parents {
				l := routing.Link{From: p, To: current}
				if skip != nil && skip(l) {
					continue
				}
				pl := g.perms[l]
				if pl == nil {
					if unrestricted != routing.None {
						ambiguous = true
					}
					unrestricted = p
					continue
				}
				if pl.Permit(dest, next) {
					parent = p
					break
				}
			}
			if parent == routing.None {
				if unrestricted == routing.None {
					return nil, false, DenialNoPermit, reversed
				}
				if ambiguous {
					return nil, false, DenialAmbiguous, reversed
				}
				parent = unrestricted
			}
		}
		reversed = append(reversed, parent)
		next = current
		current = parent
	}
	// Reverse into source-first order.
	path := make(routing.Path, len(reversed))
	for i, n := range reversed {
		path[len(reversed)-1-i] = n
	}
	return path, true, DenialNone, reversed
}

// LinkInfos exports the graph's links as announcement units, sorted by
// link for deterministic diffing.
func (g *refGraph) LinkInfos() []LinkInfo {
	out := make([]LinkInfo, 0, g.nLinks)
	for from, tos := range g.children {
		for _, to := range tos {
			l := routing.Link{From: from, To: to}
			li := LinkInfo{Link: l, ToIsDest: g.IsDest(to)}
			if pl := g.perms[l]; pl != nil && !pl.Empty() {
				li.Perm = pl.Pairs()
			}
			out = append(out, li)
		}
	}
	sort.Slice(out, func(i, j int) bool { return refLinkLess(out[i].Link, out[j].Link) })
	return out
}

// Apply merges a received delta into the graph, implementing the
// receiver-side update of §4.3.2: adds insert or re-announce links
// (replacing their Permission Lists and destination marks), removes
// withdraw links. Links whose removal isolates a node drop that node's
// bookkeeping.
func (g *refGraph) Apply(d Delta) {
	for _, l := range d.Removes {
		g.RemoveLink(l)
	}
	for _, li := range d.Adds {
		g.AddLink(li.Link)
		if li.ToIsDest {
			g.MarkDest(li.Link.To)
		} else {
			g.UnmarkDest(li.Link.To)
		}
		pl := &refPermList{}
		for _, e := range li.Perm {
			pl.Add(e.Dest, e.Next)
		}
		if pl.Empty() {
			delete(g.perms, li.Link)
		} else {
			g.perms[li.Link] = pl
		}
	}
}

type refView struct {
	g *refGraph
	// paths is the current selected path per destination (the slices are
	// shared with the caller and never mutated).
	paths map[routing.NodeID]routing.Path
	// state tracks each node's multi-homing status and current primary
	// (unrestricted) parent, so transitions can be detected without
	// rescanning.
	state map[routing.NodeID]refNodeState
	// round snapshots the announced LinkInfo of every link touched since
	// the last Flush; absent links refSnapshot as a zero LinkInfo with
	// present=false.
	round map[routing.Link]refSnapshot
	// nodeBuf is Set's scratch for the structurally touched node set;
	// paths are short, so membership checks stay linear.
	nodeBuf []routing.NodeID
}

// refNodeState is the cached per-node announcement layout.
type refNodeState struct {
	multi   bool
	primary routing.NodeID
}

// refSnapshot is a link's announced state at first touch in a round.
type refSnapshot struct {
	present bool
	info    LinkInfo
}

// NewView returns an empty announced view rooted at root.
func newRefView(root routing.NodeID) *refView {
	g := newRefGraph(root)
	// The root is its own destination, matching Build; the mark never
	// appears in announcements (the root is never a link head).
	g.MarkDest(root)
	return &refView{
		g:     g,
		paths: make(map[routing.NodeID]routing.Path),
		state: make(map[routing.NodeID]refNodeState),
		round: make(map[routing.Link]refSnapshot),
	}
}

// Graph exposes the maintained P-graph (shared; callers must not mutate).
func (v *refView) Graph() *refGraph { return v.g }

// touch snapshots link l's announced state the first time it is touched
// in the current round. It must run BEFORE any mutation of the link.
func (v *refView) touch(l routing.Link) {
	if _, done := v.round[l]; done {
		return
	}
	if !v.g.HasLink(l) {
		v.round[l] = refSnapshot{}
		return
	}
	v.round[l] = refSnapshot{present: true, info: v.linkInfo(l)}
}

// linkInfo materializes the announced state of link l (deep-copying the
// Permission List pairs, which mutate in place).
func (v *refView) linkInfo(l routing.Link) LinkInfo {
	li := LinkInfo{Link: l, ToIsDest: v.g.IsDest(l.To)}
	if pl := v.g.perms[l]; pl != nil && !pl.Empty() {
		li.Perm = pl.Pairs()
	}
	return li
}

// Set replaces destination dest's announced path; nil (or empty)
// withdraws it. The accumulated changes are returned by the next Flush.
func (v *refView) Set(dest routing.NodeID, p routing.Path) {
	if len(p) == 0 {
		p = nil
	}
	old := v.paths[dest]
	if old.Equal(p) {
		return
	}
	touched := v.nodeBuf[:0]

	// Remove the old path's contributions.
	if old != nil {
		for i := 0; i+1 < len(old); i++ {
			l := routing.Link{From: old[i], To: old[i+1]}
			v.touch(l)
			touched = refAddNode(touched, l.To)
			if pl := v.g.perms[l]; pl != nil {
				next := routing.None
				if i+2 < len(old) {
					next = old[i+2]
				}
				pl.Remove(dest, next)
				if pl.Empty() {
					delete(v.g.perms, l)
				}
			}
			if v.g.counters[l]--; v.g.counters[l] <= 0 {
				v.g.RemoveLink(l) // drops counter and any residual list
			}
		}
		delete(v.paths, dest)
	}

	// Add the new path's links.
	if p != nil {
		v.paths[dest] = p
		for i := 0; i+1 < len(p); i++ {
			l := routing.Link{From: p[i], To: p[i+1]}
			v.touch(l)
			v.g.AddLink(l)
			v.g.counters[l]++
			touched = refAddNode(touched, l.To)
		}
	}

	// Destination mark follows path presence; a change re-announces
	// every in-link of dest.
	if v.g.IsDest(dest) != (p != nil) {
		for _, parent := range v.g.Parents(dest) {
			v.touch(routing.Link{From: parent, To: dest})
		}
		if p != nil {
			v.g.MarkDest(dest)
		} else {
			v.g.UnmarkDest(dest)
		}
	}

	// Settle the announcement layout (multi-homing, primary choice) of
	// every structurally touched node, then place the new path's pairs.
	// fixNode only inspects and mutates state keyed by its own node, so
	// the visit order is immaterial.
	v.nodeBuf = touched
	for _, b := range touched {
		v.fixNode(b)
	}
	if p != nil {
		for i := 0; i+1 < len(p); i++ {
			l := routing.Link{From: p[i], To: p[i+1]}
			b := l.To
			st := v.state[b]
			if !st.multi || l.From == st.primary {
				continue
			}
			next := routing.None
			if i+2 < len(p) {
				next = p[i+2]
			}
			pl := v.g.perms[l]
			if pl == nil {
				pl = &refPermList{}
				v.g.perms[l] = pl
			}
			pl.Add(dest, next)
		}
	}
}

// fixNode re-establishes node b's announcement layout after structural
// changes: single-homed nodes carry no Permission Lists; multi-homed
// nodes carry one on every in-link except the primary (the in-link with
// the most selected paths, ties to the lowest parent — Build's rule).
// Layout transitions rebuild the affected lists from the stored paths.
func (v *refView) fixNode(b routing.NodeID) {
	parents := v.g.Parents(b)
	st := v.state[b]
	if len(parents) < 2 {
		delete(v.state, b)
		if len(parents) == 1 {
			l := routing.Link{From: parents[0], To: b}
			if v.g.perms[l] != nil {
				v.touch(l)
				delete(v.g.perms, l)
			}
		}
		return
	}
	primary := routing.None
	best := -1
	for _, p := range parents {
		if c := v.g.counters[routing.Link{From: p, To: b}]; c > best {
			best = c
			primary = p
		}
	}
	switch {
	case !st.multi:
		// Single → multi: build the list of every non-primary in-link.
		for _, p := range parents {
			l := routing.Link{From: p, To: b}
			if p == primary {
				if v.g.perms[l] != nil {
					v.touch(l)
					delete(v.g.perms, l)
				}
				continue
			}
			v.touch(l)
			v.installPairs(l)
		}
	case primary != st.primary:
		// Primary flip: the old primary needs its list built, the new
		// primary sheds its list.
		oldL := routing.Link{From: st.primary, To: b}
		if v.g.HasLink(oldL) {
			v.touch(oldL)
			v.installPairs(oldL)
		}
		newL := routing.Link{From: primary, To: b}
		if v.g.perms[newL] != nil {
			v.touch(newL)
			delete(v.g.perms, newL)
		}
	}
	v.state[b] = refNodeState{multi: true, primary: primary}
}

// installPairs rebuilds link l's Permission List from the stored paths:
// one (dest, next) pair per selected path crossing l. Candidate
// destinations are bounded by the subtree below l's head.
func (v *refView) installPairs(l routing.Link) {
	pl := &refPermList{}
	for _, d := range v.g.DestsBelow(l.To) {
		p := v.paths[d]
		for i := 0; i+1 < len(p); i++ {
			if p[i] == l.From && p[i+1] == l.To {
				next := routing.None
				if i+2 < len(p) {
					next = p[i+2]
				}
				pl.Add(d, next)
				break
			}
		}
	}
	if pl.Empty() {
		delete(v.g.perms, l)
		return
	}
	v.g.perms[l] = pl
}

// Flush returns the Δ accumulated since the last Flush: every touched
// link whose announced state actually changed, as additions (including
// attribute re-announcements) and withdrawals, sorted deterministically.
func (v *refView) Flush() Delta {
	var d Delta
	for l, before := range v.round {
		nowPresent := v.g.HasLink(l)
		switch {
		case !before.present && nowPresent:
			d.Adds = append(d.Adds, v.linkInfo(l))
		case before.present && !nowPresent:
			d.Removes = append(d.Removes, l)
		case before.present && nowPresent:
			if after := v.linkInfo(l); !after.Equal(before.info) {
				d.Adds = append(d.Adds, after)
			}
		}
	}
	clear(v.round)
	slices.SortFunc(d.Adds, func(a, b LinkInfo) int { return linkCompare(a.Link, b.Link) })
	slices.SortFunc(d.Removes, linkCompare)
	return d
}

// addNode appends n to set if absent, preserving first-touch order.
func refAddNode(set []routing.NodeID, n routing.NodeID) []routing.NodeID {
	for _, x := range set {
		if x == n {
			return set
		}
	}
	return append(set, n)
}
