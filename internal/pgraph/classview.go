package pgraph

import (
	"cmp"
	"slices"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// ClassView maintains the announced views of one export class: the
// neighbors that a node exports the same routes to. Each member's view
// holds the class's paths minus those that contain the member (the
// sender-side loop filter), so one member's view differs from another's
// only where such an excluded path runs. The class keeps one View of
// every path and, per member, the nodes an excluded path passes:
//
//   - At a node no excluded path passes, the member's in-links are the
//     class view's.
//   - A node only excluded paths pass holds no links in the member's
//     view.
//   - At a node passed by both kinds of path the member's in-links are
//     recomputed from the class view's stored paths.
//
// Set takes one destination's path for the whole class; Flush settles the
// round, after which Delta gives each member exactly what a View of that
// member's paths would flush, and LinkInfos what it would hold.
type ClassView struct {
	v       *View
	members []routing.NodeID // ascending
	mem     []member         // parallel to members
	// class is the class view's last flushed Δ; its Adds are storage
	// reused across rounds, its Removes are handed out.
	class Delta
	// heads is Flush's scratch: the round's touched link heads, ascending.
	// byHead orders the round's snapshots by (head, tail, position).
	heads  []routing.NodeID
	byHead []int32
	// tally and tallied are recompute's scratch: per in-edge of the node
	// at hand, the member's paths using it and their (dest, next) pairs.
	tally   []int32
	tallied []tallied
}

// member is what a ClassView keeps for one member.
type member struct {
	// over holds, ascending by node, a record for every node an excluded
	// path passes, plus until the next Flush every node one passed at the
	// last Flush.
	over []override
	// The member's share of the last Flush: the touched heads whose
	// class-view entries its Δ replaces (ascending), and its own entries
	// for them.
	special []routing.NodeID
	adds    []LinkInfo
	removes []routing.Link
}

// override is a member's record for one node.
type override struct {
	node routing.NodeID
	// exc counts the excluded paths passing node now.
	exc int32
	// had says that an excluded path passed node at the last Flush; links
	// then holds the member's announced in-links of node as of that
	// Flush, ascending by tail (none when only excluded paths passed it).
	had   bool
	links []LinkInfo
}

// tallied is one (dest, next) pair on the in-edge at position edge.
type tallied struct {
	edge int32
	pair PermEntry
}

// NewClassView returns an empty class view rooted at root whose graph
// resolves node IDs through ix (see NewView), for the given members in
// ascending order. Every path Set must stay inside ix.
func NewClassView(ix *topology.Index, root routing.NodeID, members []routing.NodeID) *ClassView {
	return &ClassView{v: NewView(ix, root), members: members, mem: make([]member, len(members))}
}

// Clone returns an independent deep copy of the class view, taken
// between rounds: Set and Flush on either copy never affect the other.
// The receiver is only read, so concurrent Clones are safe (see
// View.Clone). The members list and the stored link records are
// immutable and shared; the last Flush's Δs are not copied.
func (cv *ClassView) Clone() *ClassView {
	out := &ClassView{v: cv.v.Clone(), members: cv.members, mem: make([]member, len(cv.mem))}
	for i := range cv.mem {
		out.mem[i].over = slices.Clone(cv.mem[i].over)
	}
	return out
}

// ApproxMemBytes estimates the class view's heap footprint: the class
// view plus each member's node records and their in-link lists.
func (cv *ClassView) ApproxMemBytes() int {
	b := cv.v.ApproxMemBytes()
	for i := range cv.mem {
		for _, o := range cv.mem[i].over {
			b += 6 * wordBytes
			for _, li := range o.links {
				b += 8*wordBytes + len(li.Perm)*wordBytes
			}
		}
	}
	return b
}

// Set replaces destination dest's path for the whole class; nil (or
// empty) withdraws it. The changes reach the members at the next Flush.
func (cv *ClassView) Set(dest routing.NodeID, p routing.Path) {
	var old routing.Path
	if s, ok := cv.v.g.slot(dest); ok {
		old = cv.v.at(s).path
	}
	if old.Equal(p) {
		return
	}
	cv.exclude(old, -1)
	cv.exclude(p, 1)
	cv.v.Set(dest, p)
}

// exclude counts path p, by +1 or -1, at every node it passes for every
// member it contains. A path is loop-free, so it contains a member once.
func (cv *ClassView) exclude(p routing.Path, by int32) {
	if len(p) < 2 {
		return
	}
	for _, hop := range p[1:] {
		i, ok := slices.BinarySearch(cv.members, hop)
		if !ok {
			continue
		}
		m := &cv.mem[i]
		for _, n := range p[1:] {
			j, found := slices.BinarySearchFunc(m.over, n, func(o override, n routing.NodeID) int {
				return cmp.Compare(o.node, n)
			})
			if !found {
				m.over = slices.Insert(m.over, j, override{node: n})
			}
			m.over[j].exc += by
		}
	}
}

// Flush settles the round: it flushes the class view and works out each
// member's share of the change, which Delta then hands out.
func (cv *ClassView) Flush() {
	v := cv.v
	cv.heads, cv.byHead = cv.heads[:0], cv.byHead[:0]
	for i := range cv.mem {
		m := &cv.mem[i]
		m.special, m.adds, m.removes = m.special[:0], m.adds[:0], m.removes[:0]
		if len(m.over) == 0 {
			continue
		}
		if len(cv.heads) == 0 {
			for _, s := range v.round {
				cv.heads = append(cv.heads, s.link.To)
			}
			slices.Sort(cv.heads)
			cv.heads = slices.Compact(cv.heads)
		}
		cv.settle(i)
	}
	cv.class = v.flush(cv.class.Adds)
}

// settle works out member i's entries for the touched heads an excluded
// path passes or passed, and brings its node records up to date.
func (cv *ClassView) settle(i int) {
	m := &cv.mem[i]
	keep := m.over[:0]
	for _, o := range m.over {
		if !o.had && o.exc == 0 {
			continue // came and went within the round: the class view's state throughout
		}
		if _, touched := slices.BinarySearch(cv.heads, o.node); touched {
			before := o.links
			if !o.had {
				before = cv.classBefore(o.node)
			}
			after := cv.memberAfter(cv.members[i], o)
			m.special = append(m.special, o.node)
			m.adds, m.removes = diffLinks(m.adds, m.removes, before, after)
			o.had, o.links = true, after
		}
		if o.exc > 0 {
			keep = append(keep, o)
		}
	}
	clear(m.over[len(keep):])
	m.over = keep
}

// memberAfter returns the member's current in-links of o's node.
func (cv *ClassView) memberAfter(id routing.NodeID, o override) []LinkInfo {
	g := cv.v.g
	s, ok := g.slot(o.node)
	if !ok {
		return nil // no path passes the node any more
	}
	nd := g.nodes.at(s)
	var total int32
	for i := range nd.in {
		total += nd.in[i].counter
	}
	switch {
	case o.exc == 0:
		out := make([]LinkInfo, 0, len(nd.in))
		for i := range nd.in {
			out = append(out, linkInfoOf(routing.Link{From: nd.in[i].from, To: nd.id}, nd, &nd.in[i]))
		}
		return out
	case o.exc == total:
		return nil
	}
	return cv.recompute(id, s)
}

// recompute lays out the in-links of the node at slot s over the class
// paths through it that do not contain member id, by View's rules: a
// link is present when a path uses it, and a multi-homed node carries a
// Permission List on every in-link but its primary, the one most paths
// use (ties to the lowest tail).
func (cv *ClassView) recompute(id routing.NodeID, s int32) []LinkInfo {
	v, g := cv.v, cv.v.g
	nd := g.nodes.at(s)
	cv.tally = slices.Grow(cv.tally[:0], len(nd.in))[:len(nd.in)]
	clear(cv.tally)
	cv.tallied = cv.tallied[:0]
	g.beginWalk()
	g.pushWalk(s)
	for _, ds := range g.walkBelow() {
		p := v.at(ds).path
		if p.Contains(id) {
			continue
		}
		for k := 1; k < len(p); k++ {
			if p[k] == nd.id {
				e, _ := nd.inEdge(p[k-1])
				cv.tally[e]++
				cv.tallied = append(cv.tallied, tallied{edge: int32(e), pair: PermEntry{Dest: p.Dest(), Next: nextAfter(p, k)}})
				break
			}
		}
	}
	present, primary := 0, -1
	for e, c := range cv.tally {
		if c > 0 {
			present++
			if primary < 0 || c > cv.tally[primary] {
				primary = e
			}
		}
	}
	own := v.at(s).path
	dest := own != nil && !own.Contains(id)
	out := make([]LinkInfo, 0, present)
	for e, c := range cv.tally {
		if c == 0 {
			continue
		}
		li := LinkInfo{Link: routing.Link{From: nd.in[e].from, To: nd.id}, ToIsDest: dest}
		if present > 1 && e != primary {
			for _, t := range cv.tallied {
				if int(t.edge) == e {
					li.Perm = append(li.Perm, t.pair)
				}
			}
			slices.SortFunc(li.Perm, comparePerm)
		}
		out = append(out, li)
	}
	return out
}

// classBefore returns the class view's in-links of node as they stood at
// the last Flush: a link the round touched as its first snapshot
// recorded it, any other as it stands.
func (cv *ClassView) classBefore(node routing.NodeID) []LinkInfo {
	v := cv.v
	if len(cv.byHead) == 0 && len(v.round) > 0 {
		for k := range v.round {
			cv.byHead = append(cv.byHead, int32(k))
		}
		slices.SortFunc(cv.byHead, func(a, b int32) int {
			x, y := &v.round[a], &v.round[b]
			if c := cmp.Compare(x.link.To, y.link.To); c != 0 {
				return c
			}
			if c := cmp.Compare(x.link.From, y.link.From); c != 0 {
				return c
			}
			return int(a - b)
		})
	}
	var out []LinkInfo
	lo, _ := slices.BinarySearchFunc(cv.byHead, node, func(k int32, n routing.NodeID) int {
		return cmp.Compare(v.round[k].link.To, n)
	})
	for k := lo; k < len(cv.byHead) && v.round[cv.byHead[k]].link.To == node; k++ {
		snap := &v.round[cv.byHead[k]]
		if k > lo && v.round[cv.byHead[k-1]].link == snap.link {
			continue // the first snapshot is the baseline
		}
		if snap.present {
			li := LinkInfo{Link: snap.link, ToIsDest: snap.dest}
			if snap.n > 0 {
				li.Perm = slices.Clone(v.pairs[snap.off : snap.off+snap.n])
			}
			out = append(out, li)
		}
	}
	if s, ok := v.g.slot(node); ok {
		nd := v.g.nodes.at(s)
		for i := range nd.in {
			if e := &nd.in[i]; e.touched != v.epoch {
				out = append(out, linkInfoOf(routing.Link{From: e.from, To: node}, nd, e))
			}
		}
	}
	slices.SortFunc(out, func(a, b LinkInfo) int { return linkCompare(a.Link, b.Link) })
	return out
}

// diffLinks appends to adds and removes what turns before into after,
// two in-link lists of one node ascending by tail.
func diffLinks(adds []LinkInfo, removes []routing.Link, before, after []LinkInfo) ([]LinkInfo, []routing.Link) {
	i, j := 0, 0
	for i < len(before) || j < len(after) {
		switch {
		case j == len(after) || (i < len(before) && before[i].Link.From < after[j].Link.From):
			removes = append(removes, before[i].Link)
			i++
		case i == len(before) || after[j].Link.From < before[i].Link.From:
			adds = append(adds, after[j])
			j++
		default:
			if !before[i].Equal(after[j]) {
				adds = append(adds, after[j])
			}
			i++
			j++
		}
	}
	return adds, removes
}

// Delta returns member i's Δ for the last Flush: what a View of the
// member's paths would have flushed. The Adds are the caller's; the
// Removes may be shared with other members' Δs and must not be modified.
// It is valid until the next Set.
func (cv *ClassView) Delta(i int) Delta {
	m := &cv.mem[i]
	if len(m.special) == 0 {
		d := Delta{Removes: cv.class.Removes}
		if len(cv.class.Adds) > 0 {
			d.Adds = slices.Clone(cv.class.Adds)
		}
		return d
	}
	return Delta{
		Adds:    mergeLinks(cv.class.Adds, m.special, m.adds, func(li LinkInfo) routing.Link { return li.Link }),
		Removes: mergeLinks(cv.class.Removes, m.special, m.removes, func(l routing.Link) routing.Link { return l }),
	}
}

// LinkInfos returns member i's announced view in canonical order: what a
// View of the member's paths would hold. Call it between rounds.
func (cv *ClassView) LinkInfos(i int) []LinkInfo {
	m := &cv.mem[i]
	var own []LinkInfo
	for _, o := range m.over {
		own = append(own, o.links...)
	}
	special := make([]routing.NodeID, len(m.over))
	for k, o := range m.over {
		special[k] = o.node
	}
	return mergeLinks(cv.v.g.LinkInfos(), special, own, func(li LinkInfo) routing.Link { return li.Link })
}

// mergeLinks returns a new list of the entries of class whose link head
// is not in special (ascending), merged with own, in canonical link
// order; class is in that order already.
func mergeLinks[T any](class []T, special []routing.NodeID, own []T, link func(T) routing.Link) []T {
	own = slices.Clone(own)
	slices.SortFunc(own, func(a, b T) int { return linkCompare(link(a), link(b)) })
	var out []T
	if n := len(class) + len(own); n > 0 {
		out = make([]T, 0, n)
	}
	j := 0
	for _, e := range class {
		l := link(e)
		if _, skip := slices.BinarySearch(special, l.To); skip {
			continue
		}
		for ; j < len(own) && linkCompare(link(own[j]), l) < 0; j++ {
			out = append(out, own[j])
		}
		out = append(out, e)
	}
	out = append(out, own[j:]...)
	if len(out) == 0 {
		return nil
	}
	return out
}
