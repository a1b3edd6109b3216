package pgraph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// Graph is a P-graph: a directed graph of downstream links rooted at the
// node whose announcements built it (paper §3.2.2). A node stores one
// Graph per neighbor (assembled from that neighbor's downstream link
// announcements) plus its own local Graph built by BuildGraph.
//
// Links carry optional Permission Lists; nodes carry an optional
// "destination" mark corresponding to prefix ownership (§3.2.1).
//
// Storage is slot-indexed (DESIGN.md "Protocol state storage"): every
// node the graph contains is interned to a dense slot, and a slot's
// record holds the node's in-edges — each with its parent,
// selected-path counter and Permission List — and its child list. An
// entry point resolves a NodeID once, through the network's shared
// topology.Index to a position and through the graph's position table
// to a slot; everything after that walks slots. A node outside the
// index cannot enter the graph. Records grow with the graph's own size
// and the position table with the index's, so sparse node IDs (real AS
// numbers) cost nothing extra.
//
// Concurrency: HasLink, IsDest, Permission, Counter, the DerivePath
// family and Clone only read the graph and may run concurrently with
// each other. DestsBelow and AppendDestsBelow stamp the nodes they
// visit and every mutator rewrites records, so those need exclusive
// access.
type Graph struct {
	root routing.NodeID
	ix   *topology.Index // resolves a NodeID to its position
	// slotOf is the position table: by index position, the slot of the
	// node there plus one, 0 when the node is not in the graph.
	slotOf []int32
	nodes  nodeTable // by slot; a free slot has id None
	free   []int32   // released slots awaiting reuse

	nLinks, nDests, nPerms int

	// Traversal scratch: a node is visited when its seen stamp equals
	// epoch; found collects the destination slots of the current walk.
	epoch uint32
	stack []int32
	found []int32

	// fpObserver, when set, is called for every Bloom false-positive hit
	// a Permission List check takes during derivation (see filter.go).
	// Clone does not carry it over: the callback closes over its owning
	// protocol node, so a forked node must re-register its own.
	fpObserver func(l routing.Link, dest, next routing.NodeID)
}

// rootSlot is the slot New interns the root at; the root is never
// released.
const rootSlot = 0

// nodeTable holds the slot records in fixed-size chunks, so a growing
// graph allocates only the new chunk: records are never copied, and a
// *node stays valid for the graph's lifetime. A chunk is a pointer to
// an array, so a slot access loads one chunk pointer and checks one
// bound: the offset inside the chunk is masked below its length.
type nodeTable struct {
	chunks []*[chunkSize]node
	n      int32 // slots handed out, released ones included
}

const (
	chunkBits = 4
	chunkSize = 1 << chunkBits
)

// at returns slot s's record.
func (t *nodeTable) at(s int32) *node { return &t.chunks[s>>chunkBits][s&(chunkSize-1)] }

// len returns the number of slots handed out.
func (t *nodeTable) len() int { return int(t.n) }

// push hands the next slot to node id and returns it. A slot not yet
// handed out is blank but for the edge capacity a reset left in it.
func (t *nodeTable) push(id routing.NodeID) int32 {
	s := t.n
	if int(s>>chunkBits) == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkSize]node))
	}
	t.n++
	t.at(s).id = id
	return s
}

// sized returns an empty table with as many slots as t, its chunks
// carved from one allocation.
func (t *nodeTable) sized() nodeTable {
	return nodeTable{chunks: carve[node](len(t.chunks)), n: t.n}
}

// carve returns k chunks carved from one allocation.
func carve[T any](k int) []*[chunkSize]T {
	out := make([]*[chunkSize]T, k)
	all := make([][chunkSize]T, k)
	for c := range out {
		out[c] = &all[c]
	}
	return out
}

// SlotTable holds one T per slot of a graph, for state a caller keys by
// slot (DestSlot): a View's per-slot paths and layouts, a Centaur
// neighbor's derive cache. Its chunks run parallel to the graph's node
// table, so growing with the graph adds chunks and never copies. The
// zero value is an empty table.
type SlotTable[T any] struct{ chunks []*[chunkSize]T }

// Len returns the number of slots the table covers.
func (t *SlotTable[T]) Len() int { return len(t.chunks) * chunkSize }

// At returns slot s's record; s must be below Len.
func (t *SlotTable[T]) At(s int) *T { return &t.chunks[s>>chunkBits][s&(chunkSize-1)] }

// Grow makes the table cover every slot g has handed out.
func (t *SlotTable[T]) Grow(g *Graph) {
	for len(t.chunks) < len(g.nodes.chunks) {
		t.chunks = append(t.chunks, new([chunkSize]T))
	}
}

// Clear zeroes every record, keeping the storage.
func (t *SlotTable[T]) Clear() {
	for _, c := range t.chunks {
		*c = [chunkSize]T{}
	}
}

// Clone returns an independent copy whose chunks share one allocation.
// The records are copied as values.
func (t *SlotTable[T]) Clone() SlotTable[T] {
	out := SlotTable[T]{chunks: carve[T](len(t.chunks))}
	for c, src := range t.chunks {
		*out.chunks[c] = *src
	}
	return out
}

// node is one slot's record.
type node struct {
	id   routing.NodeID
	pos  int32      // id's index position
	in   []edge     // in-edges, ascending by parent ID
	out  []childRef // children, ascending by ID
	dest bool
	seen uint32 // traversal stamp
}

// edge is one in-edge record of a node: the link parent->node.
type edge struct {
	from    routing.NodeID
	slot    int32  // from's slot
	counter int32  // selected paths using the link (paper §4.3.2)
	touched uint32 // View round in which the link was last snapshotted
	perm    *PermissionList
}

// childRef names one child of a node.
type childRef struct {
	id   routing.NodeID
	slot int32
}

// New returns an empty P-graph rooted at root whose nodes are resolved
// through ix, which every node the graph will hold must be in — for a
// protocol node the network's index (sim.Env.Index). The graph keeps ix
// and allocates a position table of ix.Len() entries. A root outside ix
// is a caller's bug and panics.
func New(ix *topology.Index, root routing.NodeID) *Graph {
	g := &Graph{}
	g.reset(ix, root, false)
	return g
}

// Reset empties g into what New(ix, root) returns for g's own index,
// keeping the position table and the slot chunks, so a graph rebuilt
// link by link (a restarted session's neighbour P-graph) allocates
// again only its edge lists and what outgrows its previous incarnation.
// Unlike BuildInto's reuse, every slot's in-edge and child lists are
// dropped: a slot is taken by whichever node arrives first, and
// capacity kept across that reassignment would creep towards the
// largest list any slot ever held. The false-positive observer is
// cleared too.
func (g *Graph) Reset(root routing.NodeID) { g.reset(g.ix, root, false) }

// reset empties g for reuse as a graph over ix rooted at root. The slot
// chunks and the traversal scratch are kept, so is the position table
// while the index stays the same, and each slot's edge capacity when
// keepEdges is set; the records are blanked, which also drops their
// Permission List pointers. Only the entries of slots handed out are
// cleared from the position table, so a reset costs the graph's size,
// not the index's.
func (g *Graph) reset(ix *topology.Index, root routing.NodeID, keepEdges bool) {
	slotOf := g.slotOf
	if g.ix != ix {
		slotOf = make([]int32, ix.Len())
	}
	for s := int32(0); s < g.nodes.n; s++ {
		nd := g.nodes.at(s)
		if g.ix == ix {
			slotOf[nd.pos] = 0 // a free slot's pos is 0: clearing it again is harmless
		}
		if !keepEdges {
			*nd = node{}
			continue
		}
		clear(nd.in)
		*nd = node{in: nd.in[:0], out: nd.out[:0]}
	}
	g.nodes.n = 0
	*g = Graph{root: root, ix: ix, slotOf: slotOf, nodes: g.nodes, free: g.free[:0], stack: g.stack[:0], found: g.found[:0]}
	if _, ok := g.intern(root); !ok {
		panic(fmt.Sprintf("pgraph: root %v is not in the graph's index", root))
	}
}

// Index returns the index the graph resolves node IDs through.
func (g *Graph) Index() *topology.Index { return g.ix }

// slot resolves n through the index and the position table.
func (g *Graph) slot(n routing.NodeID) (int32, bool) {
	p := g.ix.Pos(n)
	if p < 0 {
		return 0, false
	}
	s := g.slotOf[p] - 1
	return s, s >= 0
}

// intern returns n's slot, assigning one when n is new to the graph; ok
// is false, and nothing changes, when n is outside the index.
func (g *Graph) intern(n routing.NodeID) (s int32, ok bool) {
	p := g.ix.Pos(n)
	if p < 0 {
		return 0, false
	}
	return g.internAt(n, p), true
}

// internAt is intern for n at index position p.
func (g *Graph) internAt(n routing.NodeID, p int) int32 {
	if s := g.slotOf[p] - 1; s >= 0 {
		return s
	}
	var s int32
	if k := len(g.free); k > 0 {
		s = g.free[k-1]
		g.free = g.free[:k-1]
		g.nodes.at(s).id = n
	} else {
		s = g.nodes.push(n)
	}
	g.nodes.at(s).pos = int32(p)
	g.slotOf[p] = s + 1
	return s
}

// gc releases slot s when its node has no links left. A released node
// loses its destination mark; the root stays interned and keeps its
// mark even when isolated, because the announcing neighbor itself
// remains a reachable destination. The slot keeps an edge list for its
// next tenant only when it has room for one entry, which any tenant
// fills; a longer list belongs to the node that grew it, and handed on
// it would, in a graph that lives long (a Centaur export view kept
// across sessions), leave every slot as large as the largest node it
// ever held.
func (g *Graph) gc(s int32) {
	nd := g.nodes.at(s)
	if s == rootSlot || len(nd.in) > 0 || len(nd.out) > 0 {
		return
	}
	if nd.dest {
		g.nDests--
	}
	g.slotOf[nd.pos] = 0
	in, out := nd.in[:0], nd.out[:0]
	if cap(in) > 1 {
		in = nil
	}
	if cap(out) > 1 {
		out = nil
	}
	*nd = node{in: in, out: out}
	g.free = append(g.free, s)
}

// inEdge finds the in-edge from parent from: its position and whether
// it is there. In-degrees are tiny, so a scan beats a binary search.
func (nd *node) inEdge(from routing.NodeID) (int, bool) {
	for i := range nd.in {
		if nd.in[i].from >= from {
			return i, nd.in[i].from == from
		}
	}
	return len(nd.in), false
}

// child finds the child with the given ID: its position and whether it
// is there.
func (nd *node) child(id routing.NodeID) (int, bool) {
	lo, hi := 0, len(nd.out)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); nd.out[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nd.out) && nd.out[lo].id == id
}

// link resolves l to its head slot and the position of its in-edge
// record there.
func (g *Graph) link(l routing.Link) (to int32, i int, ok bool) {
	if to, ok = g.slot(l.To); !ok {
		return 0, 0, false
	}
	i, ok = g.nodes.at(to).inEdge(l.From)
	return to, i, ok
}

// edgeOf returns l's in-edge record, nil when l is absent. The pointer
// is valid until the next mutation.
func (g *Graph) edgeOf(l routing.Link) *edge {
	if to, i, ok := g.link(l); ok {
		return &g.nodes.at(to).in[i]
	}
	return nil
}

// insertLink makes sure l is present and returns where its record
// lives; added reports whether it was created. ok is false, and nothing
// changes, when an endpoint is outside the index (None included).
func (g *Graph) insertLink(l routing.Link) (to int32, i int, added, ok bool) {
	if to, i, ok = g.link(l); ok {
		return to, i, false, true
	}
	pf, pt := g.ix.Pos(l.From), g.ix.Pos(l.To)
	if pf < 0 || pt < 0 {
		return 0, 0, false, false
	}
	from := g.internAt(l.From, pf)
	to = g.internAt(l.To, pt)
	head, tail := g.nodes.at(to), g.nodes.at(from)
	i, _ = head.inEdge(l.From)
	head.in = slices.Insert(head.in, i, edge{from: l.From, slot: from})
	j, _ := tail.child(l.To)
	tail.out = slices.Insert(tail.out, j, childRef{id: l.To, slot: to})
	g.nLinks++
	return to, i, true, true
}

// removeEdge deletes the in-edge at position i of slot to, with its
// Permission List and counter, and releases endpoints left isolated.
func (g *Graph) removeEdge(to int32, i int) {
	nd := g.nodes.at(to)
	e := nd.in[i]
	if e.perm != nil {
		g.nPerms--
	}
	nd.in = slices.Delete(nd.in, i, i+1)
	parent := g.nodes.at(e.slot)
	j, _ := parent.child(nd.id)
	parent.out = slices.Delete(parent.out, j, j+1)
	g.nLinks--
	g.gc(e.slot)
	g.gc(to)
}

// setPerm attaches pl (nil clears) to an in-edge record, keeping the
// Permission List count.
func (g *Graph) setPerm(e *edge, pl *PermissionList) {
	switch {
	case e.perm == nil && pl != nil:
		g.nPerms++
	case e.perm != nil && pl == nil:
		g.nPerms--
	}
	e.perm = pl
}

// Root returns the node at which every derivable path begins.
func (g *Graph) Root() routing.NodeID { return g.root }

// NumLinks returns the number of directed links in the graph.
func (g *Graph) NumLinks() int { return g.nLinks }

// HasLink reports whether directed link l is present.
func (g *Graph) HasLink(l routing.Link) bool {
	_, _, ok := g.link(l)
	return ok
}

// RemoveLink deletes directed link l along with its Permission List and
// counter; it reports whether l was present. Nodes left with no incident
// links are dropped from the graph (and lose their destination mark).
func (g *Graph) RemoveLink(l routing.Link) bool {
	to, i, ok := g.link(l)
	if ok {
		g.removeEdge(to, i)
	}
	return ok
}

// MarkDest marks n as a destination (prefix owner); a node outside the
// graph's index is ignored.
func (g *Graph) MarkDest(n routing.NodeID) {
	if s, ok := g.intern(n); ok {
		g.setDest(s, true)
	}
}

// setDest sets slot s's destination mark, keeping the count.
func (g *Graph) setDest(s int32, dest bool) {
	if nd := g.nodes.at(s); nd.dest != dest {
		nd.dest = dest
		if dest {
			g.nDests++
		} else {
			g.nDests--
		}
	}
}

// IsDest reports whether n is marked as a destination.
func (g *Graph) IsDest(n routing.NodeID) bool {
	_, ok := g.DestSlot(n)
	return ok
}

// DestSlot returns the slot of n when n is a marked destination. A
// caller can key state of its own by slot in a SlotTable; but a slot
// released when its node leaves the graph is handed to the next node
// to arrive, so such state must record whose it is.
func (g *Graph) DestSlot(n routing.NodeID) (int, bool) {
	s, ok := g.slot(n)
	if !ok || !g.nodes.at(s).dest {
		return 0, false
	}
	return int(s), true
}

// Dests returns the marked destinations in ascending order.
func (g *Graph) Dests() []routing.NodeID {
	out := g.AppendDests(make([]routing.NodeID, 0, g.nDests))
	slices.Sort(out)
	return out
}

// AppendDests appends the marked destinations to dst in slot order, not
// sorted: an allocation-free walk when dst has room.
func (g *Graph) AppendDests(dst []routing.NodeID) []routing.NodeID {
	for i := int32(0); i < g.nodes.n; i++ {
		if nd := g.nodes.at(i); nd.dest {
			dst = append(dst, nd.id)
		}
	}
	return dst
}

// Permission returns the Permission List attached to link l, or nil when
// the link is unrestricted.
func (g *Graph) Permission(l routing.Link) *PermissionList {
	if e := g.edgeOf(l); e != nil {
		return e.perm
	}
	return nil
}

// SetFPObserver registers fn (nil to clear) to be called whenever a
// Permission List membership check on this graph hits a Bloom false
// positive during derivation. Centaur nodes use it to fold hits into
// simulator statistics and the event trace.
func (g *Graph) SetFPObserver(fn func(l routing.Link, dest, next routing.NodeID)) {
	g.fpObserver = fn
}

// NumPermissionLists returns the number of links carrying a non-empty
// Permission List (the paper's Table 4 metric).
func (g *Graph) NumPermissionLists() int { return g.nPerms }

// PermissionLists returns all non-empty Permission Lists keyed by their
// link, sorted by link for determinism.
func (g *Graph) PermissionLists() []LinkPermission {
	out := make([]LinkPermission, 0, g.nPerms)
	for s := int32(0); s < g.nodes.n; s++ {
		nd := g.nodes.at(s)
		for _, e := range nd.in {
			if e.perm != nil {
				out = append(out, LinkPermission{Link: routing.Link{From: e.from, To: nd.id}, Perm: e.perm})
			}
		}
	}
	slices.SortFunc(out, func(a, b LinkPermission) int { return linkCompare(a.Link, b.Link) })
	return out
}

// LinkPermission pairs a link with its Permission List.
type LinkPermission struct {
	Link routing.Link
	Perm *PermissionList
}

// eachLink calls fn for every link in ascending (From, To) order with
// the head node's record and the link's in-edge record.
func (g *Graph) eachLink(fn func(l routing.Link, head *node, e *edge)) {
	// Sorting (id, slot) packed into one word orders the tails by ID;
	// each child list is already ascending.
	order := make([]uint64, 0, g.nodes.len())
	for s := int32(0); s < g.nodes.n; s++ {
		if nd := g.nodes.at(s); len(nd.out) > 0 {
			order = append(order, uint64(nd.id)<<32|uint64(s))
		}
	}
	slices.Sort(order)
	for _, key := range order {
		tail := g.nodes.at(int32(uint32(key)))
		for _, c := range tail.out {
			head := g.nodes.at(c.slot)
			i, _ := head.inEdge(tail.id)
			fn(routing.Link{From: tail.id, To: c.id}, head, &head.in[i])
		}
	}
}

// walkBelow returns the slots of the marked destinations reachable from
// the head slots pushed since beginWalk by following child links. The
// result is traversal scratch, valid until the next walk.
func (g *Graph) walkBelow() []int32 {
	for len(g.stack) > 0 {
		s := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		if g.nodes.at(s).dest {
			g.found = append(g.found, s)
		}
		for _, c := range g.nodes.at(s).out {
			g.pushWalk(c.slot)
		}
	}
	return g.found
}

// beginWalk starts a traversal: a fresh visit stamp and empty scratch.
func (g *Graph) beginWalk() {
	if g.epoch++; g.epoch == 0 { // stamp wrap-around: forget every old visit
		for s := int32(0); s < g.nodes.n; s++ {
			g.nodes.at(s).seen = 0
		}
		g.epoch = 1
	}
	g.stack, g.found = g.stack[:0], g.found[:0]
}

// pushWalk schedules slot s for the current traversal unless visited.
func (g *Graph) pushWalk(s int32) {
	if nd := g.nodes.at(s); nd.seen != g.epoch {
		nd.seen = g.epoch
		g.stack = append(g.stack, s)
	}
}

// AppendDestsBelow appends to dst the marked destinations reachable from
// any of heads by following child links (a head itself included when
// marked), each once, in no particular order. One traversal serves all
// heads; nodes the graph does not contain are skipped.
func (g *Graph) AppendDestsBelow(dst []routing.NodeID, heads ...routing.NodeID) []routing.NodeID {
	g.beginWalk()
	for _, h := range heads {
		if s, ok := g.slot(h); ok {
			g.pushWalk(s)
		}
	}
	found := g.walkBelow()
	dst = slices.Grow(dst, len(found))
	for _, s := range found {
		dst = append(dst, g.nodes.at(s).id)
	}
	return dst
}

// Rough per-element heap costs used by the ApproxMemBytes estimates.
// Estimates feed a telemetry gauge, not an allocator, so being within a
// small factor is enough.
const (
	wordBytes     = 8
	posBytes      = 4  // one position table entry
	mapEntryBytes = 48 // one map entry's amortized share of buckets and keys
	nodeBytes     = 64 // one slot record
	edgeBytes     = 32 // one in-edge record plus its child reference
)

// ApproxMemBytes estimates the graph's heap footprint: the position
// table, slot records, edge records and Permission List pairs. Feeds
// the checkpoint layer's snapshot-bytes accounting
// (sim.checkpoint_bytes).
func (g *Graph) ApproxMemBytes() int {
	b := len(g.slotOf)*posBytes + g.nodes.len()*nodeBytes + g.nLinks*edgeBytes
	for s := int32(0); s < g.nodes.n; s++ {
		for _, e := range g.nodes.at(s).in {
			if e.perm != nil {
				b += mapEntryBytes + e.perm.NumPairs()*wordBytes
			}
		}
	}
	return b
}

// Clone returns a deep copy of the graph. The receiver is only read.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		root:   g.root,
		ix:     g.ix,
		slotOf: slices.Clone(g.slotOf),
		nodes:  g.nodes.sized(),
		free:   slices.Clone(g.free),
		nLinks: g.nLinks, nDests: g.nDests, nPerms: g.nPerms,
	}
	// Two backing arrays serve every node's lists; the capacity-clamped
	// sub-slices make a later append reallocate instead of overrunning
	// the neighbouring node's records.
	edges := make([]edge, 0, g.nLinks)
	kids := make([]childRef, 0, g.nLinks)
	for s := int32(0); s < g.nodes.n; s++ {
		src := g.nodes.at(s)
		lo := len(edges)
		edges = append(edges, src.in...)
		in := edges[lo:len(edges):len(edges)]
		for i := range in {
			if in[i].perm != nil {
				in[i].perm = in[i].perm.Clone()
			}
		}
		lo = len(kids)
		kids = append(kids, src.out...)
		*out.nodes.at(s) = node{id: src.id, pos: src.pos, in: in, out: kids[lo:len(kids):len(kids)], dest: src.dest}
	}
	return out
}

// String renders the graph for debugging: root, links (with Permission
// Lists), and destinations.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P-graph(root=%v links=%d dests=%d)\n", g.root, g.nLinks, g.nDests)
	g.eachLink(func(l routing.Link, head *node, e *edge) {
		fmt.Fprintf(&b, "  %v", l)
		if head.dest {
			b.WriteString(" [dest]")
		}
		if e.perm != nil {
			fmt.Fprintf(&b, " perm=%v", e.perm)
		}
		b.WriteByte('\n')
	})
	return b.String()
}

func linkCompare(a, b routing.Link) int {
	if c := cmp.Compare(a.From, b.From); c != 0 {
		return c
	}
	return cmp.Compare(a.To, b.To)
}
