package pgraph

import (
	"fmt"
	"slices"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// View maintains an announced P-graph incrementally, implementing the
// paper's §4.3.2 steady phase literally: "node B needs to associate a
// counter with every link in the P-graph, recording how many selected
// paths contain each given link. When the counter value of a certain
// link decreases to zero ... the link is included in Δ_B as to be
// removed." Set replaces one destination's selected (export-filtered)
// path; Flush returns the accumulated Δ — link additions, withdrawals,
// and re-announcements of links whose Permission List or destination
// mark changed — exactly the delta Diff(before, after) would compute,
// without rebuilding or rescanning the whole view.
//
// The zero value is unusable; construct with NewView. A View is the
// sender-side bookkeeping for one neighbor (or for the local P-graph);
// the receiver side remains Graph.Apply.
type View struct {
	g *Graph
	// side is the view's record per slot of g.
	side SlotTable[viewSlot]
	// round snapshots the announced state of every link touched since the
	// last Flush, in first-touch order. An in-edge record stamped with the
	// current epoch is already in it; a link removed and re-added within
	// one round appears twice, and Flush keeps its first snapshot. pairs
	// holds the snapshots' Permission List pairs, each snapshot's run in
	// place; Flush empties both, so a round costs two appends per touch
	// and no allocation once the buffers have grown.
	round []snapshot
	pairs []PermEntry
	epoch uint32
	// slotBuf and hopBuf are Set's scratch: the structurally touched
	// slots (paths are short, so membership checks stay linear) and the
	// slots of the path being walked.
	slotBuf, hopBuf []int32
}

// viewSlot is what a View keeps for one slot of its graph.
type viewSlot struct {
	// path is the current selected path when the slot's node is a
	// destination (the slice is shared with the caller and never
	// mutated). A destination with a path is the head of a link, so its
	// slot cannot be released while the entry is set.
	path routing.Path
	// state tracks the node's multi-homing status and current primary
	// (unrestricted) parent, so transitions can be detected without
	// rescanning. Only a node with several in-links has state, and a Set
	// removes at most one of them, so a slot is never released (and
	// reused) with state left in it.
	state nodeState
}

// nodeState is the cached per-node announcement layout.
type nodeState struct {
	multi   bool
	primary routing.NodeID
}

// snapshot is a link's announced state at first touch in a round: its
// destination mark and the run pairs[off:off+n] of the View's pairs
// buffer holding its Permission List pairs. An absent link snapshots
// with present=false and nothing else. to is the slot its head had then,
// a hint that saves Flush the lookup; Flush records in verdict what it
// decided to announce for the link. The record is 24 bytes and holds no
// pointer, so Flush's sort moves small values without write barriers.
type snapshot struct {
	link    routing.Link
	to      int32
	off, n  int32
	present bool
	dest    bool
	verdict uint8 // 0 (no change), announce or withdraw
}

const (
	announce uint8 = iota + 1
	withdraw
)

// NewView returns an empty announced view rooted at root whose graph
// resolves node IDs through ix (see New). Every path Set must stay
// inside ix.
func NewView(ix *topology.Index, root routing.NodeID) *View {
	g := New(ix, root)
	// The root is its own destination, matching Build; the mark never
	// appears in announcements (the root is never a link head).
	g.setDest(rootSlot, true)
	v := &View{g: g, epoch: 1}
	v.side.Grow(g)
	return v
}

// ViewOf returns the view NewView(ix, root) holds after one Set per path
// and a Flush, built in bulk: BuildInto lays out the graph, and the view
// records each destination's path and each multi-homed node's primary.
// paths carries one path per destination, each from root and inside ix;
// a path set BuildInto rejects is an error. Nodes take their slots in
// list order, as with BuildInto.
func ViewOf(ix *topology.Index, root routing.NodeID, paths []routing.Path) (*View, error) {
	g, err := BuildInto(nil, ix, root, paths)
	if err != nil {
		return nil, err
	}
	v := &View{g: g, epoch: 1}
	v.side.Grow(g)
	for _, p := range paths {
		s, _ := g.slot(p.Dest())
		v.at(s).path = p
	}
	for s := int32(0); s < g.nodes.n; s++ {
		if in := g.nodes.at(s).in; len(in) > 1 {
			v.at(s).state = nodeState{multi: true, primary: in[primaryEdge(in)].from}
		}
	}
	return v, nil
}

// at returns slot s's record.
func (v *View) at(s int32) *viewSlot { return v.side.At(int(s)) }

// Graph exposes the maintained P-graph (shared; callers must not mutate).
func (v *View) Graph() *Graph { return v.g }

// Clone returns an independent deep copy of the view: Set/Flush on
// either copy never affects the other. The path slices are shared (they
// are immutable by the View contract); a pending round's snapshots and
// their pairs are copied, so a Clone taken mid-round flushes the same Δ
// as the original. The receiver is only read, so concurrent Clones of
// one view are safe — the checkpoint layer (sim.Checkpoint.Fork) relies
// on that.
func (v *View) Clone() *View {
	return &View{
		g:     v.g.Clone(),
		side:  v.side.Clone(),
		round: slices.Clone(v.round),
		pairs: slices.Clone(v.pairs),
		epoch: v.epoch,
	}
}

// ApproxMemBytes estimates the view's heap footprint: the maintained
// graph plus the per-slot path and layout records.
// Feeds the checkpoint layer's snapshot-bytes accounting.
func (v *View) ApproxMemBytes() int {
	b := v.g.ApproxMemBytes() + v.side.Len()*4*wordBytes
	for s := 0; s < v.side.Len(); s++ {
		b += len(v.side.At(s).path) * wordBytes / 2
	}
	return b
}

// touch snapshots the announced state of the in-edge at position i of
// slot s the first time it is touched in the current round, appending
// its Permission List pairs to the round's pairs buffer. It must run
// BEFORE any mutation of the link.
func (v *View) touch(s int32, i int) {
	nd := v.g.nodes.at(s)
	e := &nd.in[i]
	if e.touched == v.epoch {
		return
	}
	e.touched = v.epoch
	snap := snapshot{link: routing.Link{From: e.from, To: nd.id}, to: s, off: int32(len(v.pairs)), present: true, dest: nd.dest}
	if e.perm != nil {
		v.pairs = append(v.pairs, e.perm.pairs...)
		snap.n = int32(len(e.perm.pairs))
	}
	v.round = append(v.round, snap)
}

// Set replaces destination dest's announced path; nil (or empty)
// withdraws it. The accumulated changes are returned by the next Flush.
func (v *View) Set(dest routing.NodeID, p routing.Path) {
	if len(p) == 0 {
		p = nil
	}
	g := v.g
	ds, known := g.slot(dest)
	var old routing.Path
	if known {
		old = v.at(ds).path
	}
	if old.Equal(p) {
		return
	}
	touched := v.slotBuf[:0]

	// Remove the old path's contributions. Its nodes are all in the
	// graph, so their slots come from the position table; they are
	// resolved up front because removals release slots.
	if old != nil {
		v.at(ds).path = nil
		hops := append(v.hopBuf[:0], rootSlot)
		for _, n := range old[1:] {
			s, _ := g.slot(n)
			hops = append(hops, s)
		}
		v.hopBuf = hops
		for i := 1; i < len(old); i++ {
			s := hops[i]
			nd := g.nodes.at(s)
			at, _ := nd.inEdge(old[i-1])
			v.touch(s, at)
			touched = addSlot(touched, s)
			e := &nd.in[at]
			if e.perm != nil {
				e.perm.Remove(dest, nextAfter(old, i))
				if e.perm.Empty() {
					g.setPerm(e, nil)
				}
			}
			if e.counter--; e.counter <= 0 {
				g.removeEdge(s, at) // drops counter and any residual list
			}
		}
		known = g.nodes.at(ds).id == dest // the removals may have released dest
	}

	// Add the new path's links.
	if p != nil {
		hops := append(v.hopBuf[:0], rootSlot)
		cur := int32(rootSlot)
		for i := 1; i < len(p); i++ {
			l := routing.Link{From: p[i-1], To: p[i]}
			var at int
			var added, ok bool
			if cur, at, added, ok = g.insertLink(l); !ok {
				panic(fmt.Sprintf("pgraph: view path %v leaves the index at %v", p, p[i]))
			}
			if added {
				g.nodes.at(cur).in[at].touched = v.epoch
				v.round = append(v.round, snapshot{link: l, to: cur})
			} else {
				v.touch(cur, at)
			}
			g.nodes.at(cur).in[at].counter++
			touched = addSlot(touched, cur)
			hops = append(hops, cur)
		}
		v.hopBuf = hops
		ds, known = cur, true
		v.side.Grow(g)
		v.at(ds).path = p
	}

	// Destination mark follows path presence; a change re-announces
	// every in-link of dest.
	if known && g.nodes.at(ds).dest != (p != nil) {
		for i := range g.nodes.at(ds).in {
			v.touch(ds, i)
		}
		g.setDest(ds, p != nil)
	}

	// Settle the announcement layout (multi-homing, primary choice) of
	// every structurally touched node, then place the new path's pairs.
	// fixNode only inspects and mutates state keyed by its own node, so
	// the visit order is immaterial.
	v.slotBuf = touched
	for _, s := range touched {
		v.fixNode(s)
	}
	for i := 1; i < len(p); i++ {
		s := v.hopBuf[i]
		st := v.at(s).state
		if !st.multi || p[i-1] == st.primary {
			continue
		}
		nd := g.nodes.at(s)
		at, _ := nd.inEdge(p[i-1])
		e := &nd.in[at]
		if e.perm == nil {
			g.setPerm(e, &PermissionList{})
		}
		e.perm.Add(dest, nextAfter(p, i))
	}
}

// nextAfter returns the next hop of node p[i] on path p, None when the
// path terminates there.
func nextAfter(p routing.Path, i int) routing.NodeID {
	if i+1 < len(p) {
		return p[i+1]
	}
	return routing.None
}

// fixNode re-establishes the announcement layout of the node at slot s
// after structural changes: single-homed nodes carry no Permission
// Lists; multi-homed nodes carry one on every in-link except the
// primary (the in-link with the most selected paths, ties to the lowest
// parent — Build's rule). Layout transitions rebuild the affected lists
// from the stored paths.
func (v *View) fixNode(s int32) {
	g := v.g
	nd := g.nodes.at(s)
	if !nd.id.IsValid() {
		return // released by the removals
	}
	st := &v.at(s).state
	if len(nd.in) < 2 {
		*st = nodeState{}
		if len(nd.in) == 1 {
			v.dropPerm(s, 0)
		}
		return
	}
	primary := primaryEdge(nd.in)
	primaryID := nd.in[primary].from
	switch {
	case !st.multi:
		// Single → multi: build the list of every non-primary in-link.
		for i := range nd.in {
			if i == primary {
				v.dropPerm(s, i)
				continue
			}
			v.touch(s, i)
			v.installPairs(s, i)
		}
	case primaryID != st.primary:
		// Primary flip: the old primary needs its list built, the new
		// primary sheds its list.
		if i, ok := nd.inEdge(st.primary); ok {
			v.touch(s, i)
			v.installPairs(s, i)
		}
		v.dropPerm(s, primary)
	}
	*st = nodeState{multi: true, primary: primaryID}
}

// dropPerm clears the Permission List, if any, of the in-edge at
// position i of slot s.
func (v *View) dropPerm(s int32, i int) {
	if e := &v.g.nodes.at(s).in[i]; e.perm != nil {
		v.touch(s, i)
		v.g.setPerm(e, nil)
	}
}

// installPairs rebuilds the Permission List of the in-edge at position
// i of slot s from the stored paths: one (dest, next) pair per selected
// path crossing the link. Candidate destinations are bounded by the
// subtree below the link's head.
func (v *View) installPairs(s int32, i int) {
	g := v.g
	head := g.nodes.at(s).id
	e := &g.nodes.at(s).in[i]
	g.beginWalk()
	g.pushWalk(s)
	var pairs []PermEntry
	for _, ds := range g.walkBelow() {
		p := v.at(ds).path
		for k := 0; k+1 < len(p); k++ {
			if p[k] == e.from && p[k+1] == head {
				pairs = append(pairs, PermEntry{Dest: g.nodes.at(ds).id, Next: nextAfter(p, k+1)})
				break
			}
		}
	}
	if len(pairs) == 0 {
		g.setPerm(e, nil)
		return
	}
	pl := &PermissionList{}
	pl.setPairs(pairs)
	g.setPerm(e, pl)
}

// Flush returns the Δ accumulated since the last Flush: every touched
// link whose announced state actually changed, as additions (including
// attribute re-announcements) and withdrawals, sorted deterministically.
func (v *View) Flush() Delta { return v.flush(nil) }

// flush is Flush with the additions appended to adds[:0] when adds is
// not nil, so a caller that copies them out can reuse the storage.
func (v *View) flush(adds []LinkInfo) Delta {
	g := v.g
	slices.SortStableFunc(v.round, func(a, b snapshot) int { return linkCompare(a.link, b.link) })
	// Pass one settles each touched link's verdict and counts, so pass two
	// fills exactly sized slices and materializes only what is sent.
	var nAdds, removes int
	for i := range v.round {
		before := &v.round[i]
		l := before.link
		if i > 0 && v.round[i-1].link == l {
			continue // re-touched after a removal; the first snapshot is the baseline
		}
		at, now := 0, false
		if head := g.nodes.at(before.to); head.id == l.To {
			at, now = head.inEdge(l.From)
		} else {
			before.to, at, now = g.link(l)
		}
		head := g.nodes.at(before.to)
		switch {
		case now && !(before.present && v.sameAnnouncement(before, head, &head.in[at])):
			before.verdict = announce
			nAdds++
		case before.present && !now:
			before.verdict = withdraw
			removes++
		}
	}
	var d Delta
	switch {
	case adds != nil:
		d.Adds = slices.Grow(adds[:0], nAdds)
	case nAdds > 0:
		d.Adds = make([]LinkInfo, 0, nAdds)
	}
	if removes > 0 {
		d.Removes = make([]routing.Link, 0, removes)
	}
	for _, s := range v.round {
		switch s.verdict {
		case announce:
			head := g.nodes.at(s.to)
			at, _ := head.inEdge(s.link.From)
			d.Adds = append(d.Adds, linkInfoOf(s.link, head, &head.in[at]))
		case withdraw:
			d.Removes = append(d.Removes, s.link)
		}
	}
	v.round, v.pairs = v.round[:0], v.pairs[:0]
	if v.epoch++; v.epoch == 0 { // stamp wrap-around: forget every old touch
		for s := int32(0); s < g.nodes.n; s++ {
			for i := range g.nodes.at(s).in {
				g.nodes.at(s).in[i].touched = 0
			}
		}
		v.epoch = 1
	}
	return d
}

// sameAnnouncement reports whether the link's current record still
// announces what snapshot before recorded. View lists carry no
// compressed form, so the pairs and the destination mark are all there
// is.
func (v *View) sameAnnouncement(before *snapshot, head *node, e *edge) bool {
	var pairs []PermEntry
	if e.perm != nil {
		pairs = e.perm.pairs
	}
	return before.dest == head.dest && slices.Equal(v.pairs[before.off:before.off+before.n], pairs)
}

// addSlot appends s to set if absent, preserving first-touch order.
func addSlot(set []int32, s int32) []int32 {
	if slices.Contains(set, s) {
		return set
	}
	return append(set, s)
}
