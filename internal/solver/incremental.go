// Incremental re-solving. A converged Solution is re-converged in place
// after a set of link flips by Resolve, which re-runs the per-destination
// fixpoint only for the destinations whose routing can actually change:
//
//   - Removing (or downgrading) a link dirties exactly the destinations
//     whose best-route trees traverse it. A tree toward d uses link a—b
//     iff next[d][a] == b or next[d][b] == a; the dense layout answers
//     that with two lookups in the reverse next-hop index (Solution.rev),
//     the sharded layout with two packed column scans (the index's
//     bitmaps would be Θ(E·N) at that scale).
//   - Adding (or upgrading) a link dirties at most the destinations for
//     which the candidate route over the new link would outrank one
//     endpoint's current best. That test needs only the stored tables
//     (class, dist, next) and the shared better() ranking — no paths —
//     so it is O(1) per destination. It over-approximates (the receiver-
//     side loop check is skipped), which is sound: a spuriously dirty
//     destination re-runs its fixpoint and converges to the same state.
//
// Resolve runs in two passes: removals and relationship changes first
// (pass 1, always patched into the adjacency in place), link additions
// second (pass 2, in place for restored links, via one adjacency rebuild
// for brand-new ones). Each pass is a complete incremental step for its
// own flip subset, so the composition converges to the cold solution of
// the final graph (unique stable state). The split is what keeps the
// sharded layout sound across a rebuild: its encoding is slot-relative,
// and re-encoding it under the rebuilt adjacency is only possible when
// no stored entry still references a removed link's slot — which pass 1
// guarantees by re-running every removal-dirty destination before any
// rebuild happens.
//
// Each dirty destination's fixpoint is warm-started from the previous
// assignment with only the flipped links' endpoints activated. Soundness
// rests on the unique-stable-state property (see the package comment and
// DESIGN.md): under Gao–Rexford policies with a deterministic tie-break
// the best-response dynamics converge to the same fixpoint from any
// initial assignment, and a node whose best response differs from its
// seeded route is always eventually activated — initially only the flip
// endpoints' responses can differ, and afterwards every route change
// re-activates the changer's neighbors.
//
// The warm start is lazy: per-node class and path seeds materialize from
// the old rows on first touch (epoch-stamped scratch, no O(N) clearing
// per destination), and materialized paths are interned in a per-solve
// arena so the cascade allocates nothing per node. A flip that leaves
// routing untouched therefore costs a few bitmap words, and a typical
// single-link failure re-runs a handful of localized cascades. A cold
// solve runs the same fixpoint from the empty assignment, which it seeds
// at once without reading the row: every class is 0 but the
// destination's own.
//
// Sharded-layout seeds read their route class through Solution.patched
// during pass 1: the packed table derives classes from the adjacency's
// classIn, which pass 1 just rewrote, and the seeds must reflect the
// state the stored routes were computed under. The map holds each
// patched slot's pre-patch class and dies with the pass — by then every
// entry that selected a patched slot has been re-resolved (it belonged
// to a pass-1-dirty destination by construction).
package solver

import (
	"fmt"
	"math/bits"
	"slices"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/topology"
)

// relDead marks an adjacency slot whose edge is currently removed from
// the topology. exportOK answers false for it, so the slot never yields
// a candidate; keeping the slot (instead of re-packing the CSR layout)
// lets a restored link resurrect it in place.
const relDead = uint8(0xFF)

// Flip names one flipped link by its endpoints. The caller applies the
// change to the solution's topology graph first (RemoveEdge, AddEdge, or
// a remove+add relationship change) and then passes the endpoint pair to
// Resolve, which reconciles the solution with the graph's new state. A
// pair whose graph state matches the solution's is a no-op.
type Flip struct {
	A, B routing.NodeID
}

// ResolveStats reports what a Resolve call had to do.
type ResolveStats struct {
	// Dirty is the number of destination fixpoints re-run. A destination
	// dirtied by both a removal and an addition in the same batch is
	// counted once per pass.
	Dirty int
	// Changed is the number of (destination, node) table rows rewritten.
	Changed int
	// Rebuilt reports whether the dense adjacency had to be rebuilt
	// because a flip added a link with no previous slot (restoring a
	// previously removed link patches in place instead).
	Rebuilt bool
}

// slotPatch is a pending in-place adjacency edit (kill, resurrect, or
// reclassify).
type slotPatch struct {
	s       int32
	classIn uint8
	expRel  uint8
}

// addFlip is a link addition deferred to Resolve's second pass.
type addFlip struct {
	va, vb   int32
	rel      topology.Relationship
	sAB, sBA int32 // existing slots, -1 when the link is brand-new
}

// Resolve re-converges the solution in place after the given link flips,
// which must already be applied to the solution's topology graph. It
// computes the dirty destination set, re-runs the warm-started fixpoint
// for those destinations only, and updates the tables (and, under the
// dense layout, the reverse next-hop index) in place. The result is
// identical to a cold SolveOpts of the mutated graph under the same
// options, whatever the layout.
//
// Resolve mutates the solution and is not safe to call concurrently with
// any other method of the same Solution.
func (s *Solution) Resolve(flips []Flip) (ResolveStats, error) {
	var stats ResolveStats
	if len(flips) == 0 {
		return stats, nil
	}
	a := s.adj
	n := a.n
	words := (n + 63) / 64
	var (
		p1dirty   []uint64
		p1patches []slotPatch
		p1seeds   []int32
		adds      []addFlip
		addSeeds  []int32
		rebuild   bool
	)
	type pair struct{ lo, hi int32 }
	seen := make(map[pair]bool, len(flips))
	for _, f := range flips {
		va, vb := int32(s.idx.Pos(f.A)), int32(s.idx.Pos(f.B))
		if va < 0 || vb < 0 || va == vb {
			return stats, fmt.Errorf("solver: flip %v-%v is not a node pair of the solved topology", f.A, f.B)
		}
		key := pair{va, vb}
		if va > vb {
			key = pair{vb, va}
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		rel, nowUp := s.topo.Rel(f.A, f.B)
		sAB := a.slot(va, vb)
		sBA := int32(-1)
		if sAB >= 0 {
			sBA = a.slot(vb, va)
		}
		wasUp := sAB >= 0 && a.expRel[sAB] != relDead
		if wasUp && nowUp &&
			a.classIn[sAB] == uint8(policy.ClassOf(rel)) &&
			a.classIn[sBA] == uint8(policy.ClassOf(rel.Invert())) {
			continue // relationship unchanged: no-op flip
		}
		switch {
		case !wasUp && !nowUp:
			continue // removed twice (or never existed): no-op flip
		case wasUp && !nowUp: // removal
			if p1dirty == nil {
				p1dirty = make([]uint64, words)
			}
			s.removalDirty(p1dirty, sAB, sBA, va, vb)
			p1patches = append(p1patches,
				slotPatch{sAB, 0, relDead},
				slotPatch{sBA, 0, relDead})
			p1seeds = append(p1seeds, va, vb)
		case !wasUp && nowUp: // addition (restore or brand-new link)
			if sAB < 0 {
				rebuild = true
			}
			adds = append(adds, addFlip{va, vb, rel, sAB, sBA})
			addSeeds = append(addSeeds, va, vb)
		default: // relationship change on a live link: removal + addition
			if p1dirty == nil {
				p1dirty = make([]uint64, words)
			}
			s.removalDirty(p1dirty, sAB, sBA, va, vb)
			s.additionDirty(p1dirty, va, vb, rel)
			p1patches = append(p1patches,
				slotPatch{sAB, uint8(policy.ClassOf(rel)), uint8(rel.Invert())},
				slotPatch{sBA, uint8(policy.ClassOf(rel.Invert())), uint8(rel)})
			p1seeds = append(p1seeds, va, vb)
		}
	}
	if len(p1seeds) == 0 && len(addSeeds) == 0 {
		return stats, nil
	}

	// Pass 1: removals and relationship changes, patched into the
	// adjacency in place (slot numbering is untouched). The packed
	// layout keeps the pre-patch classes visible through s.patched
	// until every affected destination has been re-resolved.
	if len(p1seeds) > 0 {
		if s.pk != nil {
			s.patched = make(map[int32]uint8, len(p1patches))
			for _, p := range p1patches {
				s.patched[p.s] = a.classIn[p.s]
			}
		}
		for _, p := range p1patches {
			a.classIn[p.s] = p.classIn
			a.expRel[p.s] = p.expRel
		}
		err := s.runDirty(p1dirty, p1seeds, &stats)
		s.patched = nil
		if err != nil {
			return stats, err
		}
	}

	// Pass 2: additions. The dirty prefilter ranks the new links'
	// candidate routes against the pass-1 tables (computed before the
	// rebuild below, while the stored encoding and the adjacency still
	// agree); restores patch slots back to life in place, a brand-new
	// link rebuilds the adjacency — remapping the dense reverse index,
	// or re-encoding the packed table under the new slot numbering.
	if len(addSeeds) > 0 {
		p2dirty := make([]uint64, words)
		for _, ad := range adds {
			s.additionDirty(p2dirty, ad.va, ad.vb, ad.rel)
		}
		if rebuild {
			old := a
			a = buildAdjacency(s.topo, s.idx, s.opts)
			if s.pk != nil {
				s.pk = s.pk.reencode(old, a)
			} else {
				s.rev = remapRev(old, a, s.rev)
			}
			s.adj = a
			stats.Rebuilt = true
		} else {
			for _, ad := range adds {
				a.classIn[ad.sAB] = uint8(policy.ClassOf(ad.rel))
				a.expRel[ad.sAB] = uint8(ad.rel.Invert())
				a.classIn[ad.sBA] = uint8(policy.ClassOf(ad.rel.Invert()))
				a.expRel[ad.sBA] = uint8(ad.rel)
			}
		}
		if err := s.runDirty(p2dirty, addSeeds, &stats); err != nil {
			return stats, err
		}
	}
	reportTableBytes(s.MemoryBytes())
	return stats, nil
}

// runDirty re-runs the warm-started fixpoint of every destination set in
// dirty (ascending), seeded at the flipped endpoints, and writes the
// results back in place.
func (s *Solution) runDirty(dirty []uint64, seeds []int32, stats *ResolveStats) error {
	if s.inc == nil {
		s.inc = newIncState(s.adj.n)
	}
	st := s.inc
	st.sol, st.adj = s, s.adj
	for w, word := range dirty {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			d := w*64 + b
			stats.Dirty++
			if err := st.resolveDest(d, seeds); err != nil {
				return err
			}
			stats.Changed += st.writeBack(d)
		}
	}
	return nil
}

// removalDirty marks every destination whose best-route tree traverses
// the live link at slots sAB/sBA (endpoints va/vb). The dense layout
// reads the reverse next-hop index; the sharded layout scans the two
// packed columns instead (an O(N) pass over two entries per
// destination), trading the index's Θ(E·N) bitmaps for scan time.
func (s *Solution) removalDirty(dirty []uint64, sAB, sBA, va, vb int32) {
	if s.pk != nil {
		for d := 0; d < s.adj.n; d++ {
			if s.pk.nextAt(s.adj, d, va) == vb || s.pk.nextAt(s.adj, d, vb) == va {
				dirty[d>>6] |= 1 << (uint(d) & 63)
			}
		}
		return
	}
	s.ensureRev()
	orBits(dirty, s.rev[sAB])
	orBits(dirty, s.rev[sBA])
}

// additionDirty marks every destination for which the candidate route
// over the new (or upgraded) link va—vb could outrank an endpoint's
// current best. rel is vb's relationship from va's perspective. The test
// mirrors reselect's ranking on the stored tables alone; skipping the
// loop check only over-approximates the dirty set.
func (s *Solution) additionDirty(dirty []uint64, va, vb int32, rel topology.Relationship) {
	relBA := rel.Invert()
	cAB, eAB := uint8(policy.ClassOf(rel)), uint8(relBA) // va learns from vb
	cBA, eBA := uint8(policy.ClassOf(relBA)), uint8(rel) // vb learns from va
	for d := 0; d < s.adj.n; d++ {
		if s.candidateBeats(d, va, vb, cAB, eAB) || s.candidateBeats(d, vb, va, cBA, eBA) {
			dirty[d>>6] |= 1 << (uint(d) & 63)
		}
	}
}

// candidateBeats reports whether the route v would learn from u (class
// cIn, export-checked against expRel) could outrank v's current best
// toward destination d, judging from the stored tables only.
func (s *Solution) candidateBeats(d int, v, u int32, cIn, expRel uint8) bool {
	if int(v) == d {
		return false // the destination's own route never changes
	}
	cu := s.classPos(d, u)
	if cu == 0 || !exportOK(cu, expRel) {
		return false
	}
	bc := s.classPos(d, v)
	if bc == 0 {
		return true // currently unreachable: any candidate wins
	}
	plen := int(s.distPos(d, u)) + 2
	bl := int(s.distPos(d, v)) + 1
	return s.adj.better(v, d, cIn, plen, u, bc, bl, s.nextPos(d, v))
}

// DestsVia returns the destinations that from currently routes through
// neighbor via (including via itself when the direct link is the best
// route), in ascending dense-index order. The dense layout answers from
// the reverse next-hop index (one bitmap scan after the first call);
// the sharded layout scans the packed column. Returns nil when from and
// via are not adjacent.
func (s *Solution) DestsVia(from, via routing.NodeID) []routing.NodeID {
	f, u := s.idx.Pos(from), s.idx.Pos(via)
	if f < 0 || u < 0 {
		return nil
	}
	slot := s.adj.slot(int32(f), int32(u))
	if slot < 0 {
		return nil
	}
	if s.pk != nil {
		var out []routing.NodeID
		for d := 0; d < s.adj.n; d++ {
			if d != f && s.pk.nextAt(s.adj, d, int32(f)) == int32(u) {
				out = append(out, s.idx.ID(d))
			}
		}
		return out
	}
	s.ensureRev()
	var out []routing.NodeID
	for w, word := range s.rev[slot] {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			out = append(out, s.idx.ID(w*64+b))
		}
	}
	return out
}

// CloneOn returns an independent deep copy of the solution re-anchored
// on g, which must be topologically identical to the solution's current
// graph (e.g. its Clone). The copy shares no mutable state with the
// original — including the adjacency, which is cloned rather than
// rebuilt so the copy keeps the original's slot numbering (and its dead
// slots: the packed encoding is slot-relative, and preserved dead slots
// also let either side restore a removed link in place). Lazy caches
// (reverse index, scratch) start empty.
func (s *Solution) CloneOn(g *topology.Graph) (*Solution, error) {
	if g.NumNodes() != s.idx.Len() || g.NumEdges() != s.topo.NumEdges() {
		return nil, fmt.Errorf("solver: CloneOn graph shape mismatch: %d nodes/%d edges vs %d/%d",
			g.NumNodes(), g.NumEdges(), s.idx.Len(), s.topo.NumEdges())
	}
	n := s.idx.Len()
	c := &Solution{
		topo: g,
		idx:  s.idx, // immutable, and the node set is fixed across flips
		opts: s.opts,
		adj:  s.adj.clone(),
	}
	if s.pk != nil {
		c.pk = s.pk.clone()
		return c, nil
	}
	c.next = make([][]int32, n)
	c.class = make([][]uint8, n)
	c.dist = make([][]uint16, n)
	for d := 0; d < n; d++ {
		c.next[d] = slices.Clone(s.next[d])
		c.class[d] = slices.Clone(s.class[d])
		c.dist[d] = slices.Clone(s.dist[d])
	}
	return c, nil
}

// PrimeReverseIndex eagerly builds the reverse next-hop index that the
// dense layout's Resolve and DestsVia otherwise build on first use,
// letting callers (benchmarks, latency-sensitive steady-state loops)
// move the one-time cost off their hot path. The sharded layout has no
// reverse index (it scans packed columns instead), so this is a no-op
// there.
func (s *Solution) PrimeReverseIndex() { s.ensureRev() }

// Equal reports whether o encodes exactly the same routing tables (next
// hop, class, distance for every pair) over the same node index — the
// byte-identical bar the incremental path is held to against a cold
// solve. Layouts may differ: two solutions are compared by answers, with
// fast paths (row compare, packed word compare) when the
// representations line up.
func (s *Solution) Equal(o *Solution) bool {
	if o == nil || s.idx.Len() != o.idx.Len() {
		return false
	}
	n := s.idx.Len()
	for i := 0; i < n; i++ {
		if s.idx.ID(i) != o.idx.ID(i) {
			return false
		}
	}
	if s.pk == nil && o.pk == nil {
		for d := 0; d < n; d++ {
			if !slices.Equal(s.next[d], o.next[d]) ||
				!slices.Equal(s.class[d], o.class[d]) ||
				!slices.Equal(s.dist[d], o.dist[d]) {
				return false
			}
		}
		return true
	}
	if s.pk != nil && o.pk != nil && s.patched == nil && o.patched == nil &&
		slices.Equal(s.adj.off, o.adj.off) &&
		slices.Equal(s.adj.nbr, o.adj.nbr) &&
		slices.Equal(s.adj.classIn, o.adj.classIn) {
		// Same slot numbering and classes: the packed encoding is
		// canonical, so equality is a word compare.
		return s.pk.equalWindows(o.pk)
	}
	// Mixed layouts, or packed tables under differently numbered
	// adjacencies (e.g. one side carries dead slots): compare answers.
	for d := 0; d < n; d++ {
		for v := int32(0); v < int32(n); v++ {
			if s.nextPos(d, v) != o.nextPos(d, v) ||
				s.classPos(d, v) != o.classPos(d, v) ||
				s.distPos(d, v) != o.distPos(d, v) {
				return false
			}
		}
	}
	return true
}

// ensureRev builds the reverse next-hop index on first use: one bitmap
// per directed adjacency slot, bit d set iff the slot's owner routes to
// d through the slot's neighbor. The incremental write-back keeps it
// consistent afterwards. Dense layout only — the sharded layout answers
// the same queries by column scan (the bitmaps are Θ(E·N/8) bytes,
// ~3 GB at 75k nodes, which would cancel the packed table's savings).
func (s *Solution) ensureRev() {
	if s.pk != nil {
		return
	}
	s.revOnce.Do(func() {
		a := s.adj
		words := (a.n + 63) / 64
		rev := make([][]uint64, len(a.nbr))
		backing := make([]uint64, len(a.nbr)*words)
		for i := range rev {
			rev[i] = backing[i*words : (i+1)*words : (i+1)*words]
		}
		for d := 0; d < a.n; d++ {
			row := s.next[d]
			for v := 0; v < a.n; v++ {
				u := row[v]
				if u == noRoute || v == d {
					continue
				}
				rev[a.slot(int32(v), u)][d>>6] |= 1 << (uint(d) & 63)
			}
		}
		s.rev = rev
	})
}

// remapRev carries the reverse index across an adjacency rebuild: slots
// present in both keep their bitmaps (moved, not copied), brand-new
// slots start empty (no destination can route over a link that did not
// exist), and dropped slots' bitmaps are discarded — any destination
// still routed over a dropped link was re-resolved by pass 1 before the
// rebuild, so its row no longer references the slot.
func remapRev(old, cur *adjacency, rev [][]uint64) [][]uint64 {
	if rev == nil {
		return nil
	}
	words := (cur.n + 63) / 64
	out := make([][]uint64, len(cur.nbr))
	for v := 0; v < cur.n; v++ {
		oi, oe := old.off[v], old.off[v+1]
		for t := cur.off[v]; t < cur.off[v+1]; t++ {
			u := cur.nbr[t]
			for oi < oe && old.nbr[oi] < u {
				oi++
			}
			if oi < oe && old.nbr[oi] == u {
				out[t] = rev[oi]
				oi++
			} else {
				out[t] = make([]uint64, words)
			}
		}
	}
	return out
}

// slot returns the dense slot index of v's adjacency toward u, or -1
// when u is not (and never was, since the last rebuild) v's neighbor.
// Slots within a node ascend by neighbor position, so this is a binary
// search over v's range.
func (a *adjacency) slot(v, u int32) int32 {
	lo, hi := a.off[v], a.off[v+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if a.nbr[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < a.off[v+1] && a.nbr[lo] == u {
		return lo
	}
	return -1
}

// orBits folds src into dst (dst |= src).
func orBits(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// incState is the solver's one best-response engine: the scratch of a
// per-destination fixpoint run from a stored row. Resolve runs it from
// the previous assignment (warm), solveRange from the empty one (cold).
// All per-node arrays are epoch-stamped: bumping epoch invalidates every
// lazily seeded value at once, so switching destinations costs O(1)
// instead of an O(N) clear. Paths live in a per-solve arena reset per
// destination; a slice whose epoch stamp is current never dangles.
type incState struct {
	adj *adjacency
	sol *Solution
	d   int
	// cold marks a scratch whose every row starts as the empty
	// assignment: seeds and write-back compare against it without
	// reading the row.
	cold bool
	// oldNext/oldClass/oldDist alias the destination's dense rows
	// (immutable during the fixpoint; writeBack mutates them after).
	// All nil under the sharded layout, where the oldNxt/oldCls/oldDst
	// accessors decode the packed row instead.
	oldNext  []int32
	oldClass []uint8
	oldDist  []uint16
	epoch    uint32
	// cs[v] packs v's current route class (low byte), the pathCur flag
	// and, above them, the epoch both were written in: one load per
	// candidate. An entry of an older epoch is stale and reads through
	// to the old row.
	cs []uint64
	// path[v] is v's current route while cs[v] is current with pathCur
	// set. A current non-zero class without pathCur means v still holds
	// its old route, materialized from the old next row on first read.
	// slot[v] is the adjacency slot of path[v]'s next hop, set with
	// every route change.
	path  [][]int32
	slot  []int32
	inqEp []uint32
	queue []int32
	head  int
	chEp  []uint32
	// changed lists the nodes whose route changed at least once during
	// the current destination's cascade (deduplicated via chEp).
	changed []int32
	// arena is the chunk paths are carved from, chunks[chunk] the one it
	// slices; resolveDest rewinds to the first chunk, so a worker's path
	// storage is its largest cascade's, rounded up to a chunk.
	arena  []int32
	chunks [][]int32
	chunk  int
}

// arenaChunk is the path arena's chunk size in node positions.
const arenaChunk = 1024

func newIncState(n int) *incState {
	return &incState{
		cs:     make([]uint64, n),
		path:   make([][]int32, n),
		slot:   make([]int32, n),
		inqEp:  make([]uint32, n),
		chEp:   make([]uint32, n),
		queue:  make([]int32, 0, 64),
		chunks: [][]int32{make([]int32, 0, arenaChunk)},
	}
}

// oldCls reads v's stored route class toward the current destination
// (packed reads go through Solution.patched so pass-1 seeds see
// pre-patch classes).
func (st *incState) oldCls(v int32) uint8 {
	if st.oldClass != nil {
		return st.oldClass[v]
	}
	return st.sol.pk.classAt(st.adj, st.sol.patched, st.d, v)
}

// oldNxt reads v's stored next hop toward the current destination.
func (st *incState) oldNxt(v int32) int32 {
	if st.oldNext != nil {
		return st.oldNext[v]
	}
	return st.sol.pk.nextAt(st.adj, st.d, v)
}

// oldDst reads v's stored hop distance toward the current destination.
func (st *incState) oldDst(v int32) uint16 {
	if st.oldDist != nil {
		return st.oldDist[v]
	}
	return st.sol.pk.distAt(st.d, v)
}

// resolveDest runs the best-response fixpoint for destination d from
// its stored row, with only the seeds activated: the flipped links'
// endpoints for Resolve, the destination's neighbours for a cold solve.
func (st *incState) resolveDest(d int, seeds []int32) error {
	st.epoch++
	st.d = d
	st.oldNext, st.oldClass, st.oldDist = nil, nil, nil
	if st.sol.pk == nil {
		st.oldNext, st.oldClass, st.oldDist = st.sol.next[d], st.sol.class[d], st.sol.dist[d]
	}
	st.chunk, st.arena = 0, st.chunks[0][:0]
	st.queue, st.head, st.changed = st.queue[:0], 0, st.changed[:0]
	if st.cold {
		// Every node starts unreachable: seed all classes at once, so
		// the candidate scan never takes the seeding branch.
		stamp := st.stamp()
		for v := range st.cs {
			st.cs[v] = stamp
		}
	}
	// The destination's own route never changes: stamp it, so seeding
	// only ever reads other nodes' entries.
	st.path[d] = append(st.alloc(1)[:0], int32(d))
	st.cs[d] = st.stamp() | pathCur | uint64(policy.ClassOwn)
	for _, v := range seeds {
		st.push(v)
	}
	adj := st.adj
	// Convergence bound: under Gao–Rexford policies every best-response
	// cascade is finite; the generous cap below only guards against a
	// malformed topology (e.g. a customer-provider cycle).
	budget := int64(64) * int64(adj.n+1) * int64(adj.n+1)
	for st.head < len(st.queue) {
		if budget--; budget < 0 {
			return fmt.Errorf("solver: fixpoint did not converge for destination position %d (policy oscillation — check the topology for customer-provider cycles)", d)
		}
		// Compact the drained prefix occasionally so the backing array
		// stays proportional to the pending set, not the total enqueued.
		if st.head >= 1024 && 2*st.head >= len(st.queue) {
			st.queue = st.queue[:copy(st.queue, st.queue[st.head:])]
			st.head = 0
		}
		v := st.queue[st.head]
		st.head++
		st.inqEp[v] = st.epoch - 1
		if int(v) == d {
			continue
		}
		if st.reselect(v) {
			st.activateNeighbors(v)
		}
	}
	return nil
}

func (st *incState) push(v int32) {
	if st.inqEp[v] != st.epoch {
		st.inqEp[v] = st.epoch
		st.queue = append(st.queue, v)
	}
}

func (st *incState) activateNeighbors(v int32) {
	adj := st.adj
	for s := adj.off[v]; s < adj.off[v+1]; s++ {
		st.push(adj.nbr[s])
	}
}

// reselect recomputes v's best route as the best response to its
// neighbors' current routes — subject to the export rule and the
// receiver-side loop check — and reports whether it changed.
func (st *incState) reselect(v int32) bool {
	adj := st.adj
	end := adj.off[v+1]
	s, best, bestPath := st.scan(v, adj.off[v], end, -1, nil)
	if s < end {
		// A neighbour not seeded this epoch: seed it and the rest of
		// the slots, then finish the scan from it.
		for t := s; t < end; t++ {
			if c := st.cls(adj.nbr[t]); c != 0 && exportOK(c, adj.expRel[t]) {
				st.pathOf(adj.nbr[t])
			}
		}
		_, best, bestPath = st.scan(v, s, end, best, bestPath)
	}
	if best < 0 {
		if st.cls(v) == 0 {
			return false
		}
		st.cs[v] = st.stamp()
		st.markChanged(v)
		return true
	}
	bestClass := adj.classIn[best]
	if st.cls(v) == bestClass && pathEqualPrepended(st.pathOf(v), v, bestPath) {
		return false
	}
	// Reuse v's block when this cascade already gave it one that fits:
	// no other node's path aliases it (bestPath belongs to a neighbour).
	p := st.path[v]
	if st.cs[v]&pathCur == 0 || cap(p) < len(bestPath)+1 {
		p = st.alloc(len(bestPath) + 1)
	}
	st.path[v] = append(append(p[:0], v), bestPath...)
	st.slot[v] = best
	st.cs[v] = st.stamp() | pathCur | uint64(bestClass)
	st.markChanged(v)
	return true
}

// scan ranks v's candidates at slots [s, end) against the best so far
// (its slot, -1 for none, and path: class, via and length follow from
// them) and returns where it stopped — end, or the slot of a neighbour
// whose class, or exportable route's path, is not seeded this epoch. It
// calls nothing but better, so the candidate loop keeps its state in
// registers; a cold solve, which seeds every class up front and whose
// every route is this cascade's, never stops early.
func (st *incState) scan(v, s, end, best int32, bestPath []int32) (int32, int32, []int32) {
	adj := st.adj
	for ; s < end; s++ {
		u := adj.nbr[s]
		x := st.cs[u]
		if x>>9 != uint64(st.epoch) {
			break
		}
		if cu := uint8(x); cu == 0 || !exportOK(cu, adj.expRel[s]) {
			continue
		}
		if x&pathCur == 0 {
			break
		}
		up := st.path[u]
		// Rank: class, then the within-class order of the selected
		// tie-break mode (mirroring policy.GaoRexford.Better). Slots
		// ascend by neighbor position, so when everything else ties the
		// first slot wins the final lowest-via comparison.
		if best >= 0 && !adj.better(v, st.d, adj.classIn[s], len(up)+1, u,
			adj.classIn[best], len(bestPath)+1, adj.nbr[best]) {
			continue
		}
		// Receiver-side loop check last — it is the expensive part.
		if containsNode(up, v) {
			continue
		}
		best, bestPath = s, up
	}
	return s, best, bestPath
}

// cls returns v's current route class, seeding it from the old row on
// first touch.
func (st *incState) cls(v int32) uint8 {
	if x := st.cs[v]; x>>9 == uint64(st.epoch) {
		return uint8(x)
	}
	return st.seedCls(v)
}

// pathCur is cs's flag for a path[v] written in the current epoch.
const pathCur = 1 << 8

// stamp is the current epoch's cs bits.
func (st *incState) stamp() uint64 { return uint64(st.epoch) << 9 }

// seedCls is cls's first-touch path, kept out of line so cls inlines
// into the candidate scan.
//
//go:noinline
func (st *incState) seedCls(v int32) uint8 {
	c := st.oldCls(v)
	st.cs[v] = st.stamp() | uint64(c)
	return c
}

// pathOf returns v's current route path (v first). Callers must have
// established that v's current class is non-zero, which makes cs[v]
// current.
func (st *incState) pathOf(v int32) []int32 {
	if st.cs[v]&pathCur != 0 {
		return st.path[v]
	}
	return st.seedPath(v)
}

// seedPath materializes v's old route into the arena by walking the old
// next row — which stays internally consistent during the fixpoint
// because writeBack only mutates it afterwards. A cold solve never gets
// here: its only routed node at the start is the stamped destination.
func (st *incState) seedPath(v int32) []int32 {
	st.cs[v] |= pathCur
	n := int(st.oldDst(v)) + 1
	p := st.alloc(n)
	cur := v
	for i := 0; i < n-1; i++ {
		p[i] = cur
		cur = st.oldNxt(cur)
	}
	p[n-1] = cur
	st.path[v] = p
	return p
}

func (st *incState) markChanged(v int32) {
	if st.chEp[v] != st.epoch {
		st.chEp[v] = st.epoch
		st.changed = append(st.changed, v)
	}
}

// alloc carves an n-element block out of the arena. The three-index
// result cannot grow into a later block, and a block never spans two
// chunks, so every block stays valid until resolveDest rewinds.
func (st *incState) alloc(n int) []int32 {
	if cap(st.arena)-len(st.arena) < n {
		st.nextChunk(n)
	}
	off := len(st.arena)
	st.arena = st.arena[:off+n]
	return st.arena[off : off+n : off+n]
}

// nextChunk moves the arena to the next chunk with room for n, adding
// one when the worker has not needed it before.
func (st *incState) nextChunk(n int) {
	st.chunk++
	if st.chunk == len(st.chunks) || cap(st.chunks[st.chunk]) < n {
		// A block too long for a standard chunk replaces the rest.
		st.chunks = append(st.chunks[:st.chunk], make([]int32, 0, max(n, arenaChunk)))
	}
	st.arena = st.chunks[st.chunk][:0]
}

// writeBack folds destination d's re-converged assignment into the
// tables in place — dense rows plus the reverse index, or packed
// entries — and returns how many rows actually changed. A node that
// changed during the cascade but settled back on a route with identical
// (class, next, dist) leaves its row untouched.
func (st *incState) writeBack(d int) int {
	s, adj := st.sol, st.adj
	changed := 0
	for _, v := range st.changed {
		newC := uint8(st.cs[v]) // epoch-current: markChanged implies a class stamp
		newN := noRoute
		var newD uint16
		if newC != 0 {
			p := st.path[v]
			newN = p[1] // v != d: the destination is never reselected
			newD = uint16(len(p) - 1)
		}
		// A cold row is the empty assignment: only a route is news.
		if st.cold && newC == 0 ||
			!st.cold && newC == st.oldCls(v) && newN == st.oldNxt(v) && newD == st.oldDst(v) {
			continue
		}
		if s.pk != nil {
			if newC == 0 {
				s.pk.setNoRoute(d, v)
			} else {
				s.pk.setVia(adj, d, v, st.slot[v], newD)
			}
			changed++
			continue
		}
		if s.rev != nil {
			if oldN := st.oldNext[v]; oldN != noRoute {
				// The old slot may have been dropped by a rebuild; its
				// bitmap died with it.
				if os := adj.slot(v, oldN); os >= 0 {
					s.rev[os][d>>6] &^= 1 << (uint(d) & 63)
				}
			}
			if newN != noRoute {
				s.rev[st.slot[v]][d>>6] |= 1 << (uint(d) & 63)
			}
		}
		// The old* slices alias the dense rows.
		st.oldNext[v], st.oldClass[v], st.oldDist[v] = newN, newC, newD
		changed++
	}
	return changed
}
