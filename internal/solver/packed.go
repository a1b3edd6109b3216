// The sharded packed table backend. The dense layout stores 7 bytes per
// (destination, node) entry (next int32 + class uint8 + dist uint16),
// which is ~39 GB at 75k nodes — the wall between the 16k scaling point
// and a real CAIDA-scale sweep. The packed layout exploits two
// redundancies of policy-routing tables on AS-like graphs:
//
//   - A node's next hop is always one of its neighbors, so it needs
//     ceil(log2(deg+1)) bits (the +1 encodes "no route"), not 32. Stub
//     networks — the overwhelming majority of an AS graph — have one or
//     two providers and fit in 1–2 bits.
//   - The route class is fully determined by the chosen next-hop slot:
//     it is the adjacency's classIn of that slot (ClassOwn at the
//     destination itself, 0 when unreachable). It therefore needs no
//     storage at all; Class answers derive it from the adjacency.
//
// Distances are stored in 6 bits with value 63 escaping to a per-
// destination overflow map (AS paths average ~4 hops; escapes are for
// adversarial chains, not normal operation). Entries have a fixed
// per-node bit offset within a row, rows are rounded up to whole 64-bit
// words (so concurrent per-destination solvers never share a word), and
// rows live in fixed-size per-shard arenas rather than one monolithic
// allocation. Net effect on CAIDA-like graphs: ~8–9 bits per entry,
// ~5–6 GB at 75k nodes.
//
// The packed encoding is slot-relative, so it is only meaningful against
// the adjacency it was written under. Operations that renumber slots
// (an adjacency rebuild after a brand-new link) must re-encode the table
// (see reencode); in-place patches (link removal, restore, relationship
// change) keep slot numbering and need no re-encode.
package solver

import (
	"maps"
	"math/bits"
	"slices"

	"centaur/internal/policy"
)

const (
	// distBits is the in-row distance field width; distEscape flags an
	// out-of-line distance in packedTable.overflow.
	distBits   = 6
	distEscape = 1<<distBits - 1

	// defaultShardDests is the destinations-per-shard arena size when
	// Options.destsPerShard is unset.
	defaultShardDests = 512

	// autoShardNodes is the automatic layout cutover: graphs at least this
	// large solve into the packed sharded layout, smaller ones stay
	// dense (the dense layout is faster to read and its quadratic cost
	// is irrelevant below this size).
	autoShardNodes = 8192
)

// packedTable is the sharded bit-packed routing table: nd destination
// rows (positions dbase..dbase+nd-1, dbase is non-zero only for the
// streaming shard window), each packing one entry per node.
type packedTable struct {
	n         int // nodes per row
	nd        int // destination rows covered
	dbase     int // first destination position covered
	shardSize int // destination rows per shard arena
	rowWords  int // 64-bit words per row

	// slotBits[v] is the width of v's next-hop field: values 0..deg-1
	// name the adjacency slot, deg means "no route". deg[v] caches the
	// slot count (including slots of currently removed links, which the
	// incremental path keeps in place). boff[v] is the bit offset of
	// v's entry within a row. All three are per-adjacency-build
	// immutable and shared by clones.
	slotBits []uint8
	deg      []int32
	boff     []uint32

	// shards[i] backs rows [i*shardSize, (i+1)*shardSize) of the
	// window, each row rowWords long.
	shards [][]uint64

	// overflow[d-dbase][v] is the true distance of an entry whose
	// in-row field reads distEscape. Maps are nil until first needed.
	overflow []map[int32]uint16
}

// newPackedTable lays out and allocates a table for nd destination rows
// starting at position dbase, under adjacency a.
func newPackedTable(a *adjacency, dbase, nd, shardSize int) *packedTable {
	n := a.n
	t := &packedTable{
		n:         n,
		nd:        nd,
		dbase:     dbase,
		shardSize: shardSize,
		slotBits:  make([]uint8, n),
		deg:       make([]int32, n),
		boff:      make([]uint32, n+1),
	}
	var off uint32
	for v := 0; v < n; v++ {
		d := a.off[v+1] - a.off[v]
		t.deg[v] = d
		w := uint8(bits.Len(uint(d))) // representable values 0..d
		t.slotBits[v] = w
		t.boff[v] = off
		off += uint32(w) + distBits
	}
	t.boff[n] = off
	t.rowWords = int(off+63) / 64
	nShards := (nd + shardSize - 1) / shardSize
	t.shards = make([][]uint64, nShards)
	for i := 0; i < nShards; i++ {
		rows := shardSize
		if last := nd - i*shardSize; last < rows {
			rows = last
		}
		t.shards[i] = make([]uint64, rows*t.rowWords)
	}
	t.overflow = make([]map[int32]uint16, nd)
	return t
}

// row returns destination position d's packed row.
func (t *packedTable) row(d int) []uint64 {
	i := d - t.dbase
	r := (i % t.shardSize) * t.rowWords
	return t.shards[i/t.shardSize][r : r+t.rowWords]
}

// load reads entry (d, v): the slot-relative next-hop value (deg[v] =
// no route) and the raw 6-bit distance field.
func (t *packedTable) load(d int, v int32) (rel, raw uint32) {
	row := t.row(d)
	off := t.boff[v]
	sb := t.slotBits[v]
	width := uint32(sb) + distBits
	w, b := off>>6, off&63
	e := row[w] >> b
	if b+width > 64 {
		e |= row[w+1] << (64 - b)
	}
	e &= 1<<width - 1
	return uint32(e) & (1<<sb - 1), uint32(e >> sb)
}

// store writes node v's entry into row. Distinct rows never share a
// 64-bit word (rows are word-aligned), so concurrent stores to
// different destinations are race-free.
func (t *packedTable) store(row []uint64, v int32, rel, raw uint32) {
	off := t.boff[v]
	sb := t.slotBits[v]
	width := uint32(sb) + distBits
	e := uint64(rel) | uint64(raw)<<sb
	mask := uint64(1)<<width - 1
	w, b := off>>6, off&63
	row[w] = row[w]&^(mask<<b) | e<<b
	if b+width > 64 {
		rem := 64 - b
		row[w+1] = row[w+1]&^(mask>>rem) | e>>rem
	}
}

// setNoRoute marks (d, v) unreachable. Also the canonical encoding of
// the destination's own entry (readers branch on v == d first).
func (t *packedTable) setNoRoute(d int, v int32) {
	t.store(t.row(d), v, uint32(t.deg[v]), 0)
	if m := t.overflow[d-t.dbase]; m != nil {
		delete(m, v)
	}
}

// setVia encodes (d, v) routing through absolute adjacency slot s at
// hop distance dist.
func (t *packedTable) setVia(a *adjacency, d int, v int32, s int32, dist uint16) {
	raw := uint32(dist)
	if dist >= distEscape {
		raw = distEscape
		i := d - t.dbase
		if t.overflow[i] == nil {
			t.overflow[i] = make(map[int32]uint16)
		}
		t.overflow[i][v] = dist
	} else if m := t.overflow[d-t.dbase]; m != nil {
		delete(m, v)
	}
	t.store(t.row(d), v, uint32(s-a.off[v]), raw)
}

// noRouteRow returns one row's words with every entry unreachable —
// the packed empty assignment, since the destination's own entry is
// encoded as no route too.
func (t *packedTable) noRouteRow() []uint64 {
	row := make([]uint64, t.rowWords)
	for v := int32(0); v < int32(t.n); v++ {
		t.store(row, v, uint32(t.deg[v]), 0)
	}
	return row
}

// nextAt decodes the next-hop position of (d, v): v itself at the
// destination, noRoute when unreachable.
func (t *packedTable) nextAt(a *adjacency, d int, v int32) int32 {
	if int(v) == d {
		return v
	}
	rel, _ := t.load(d, v)
	if rel == uint32(t.deg[v]) {
		return noRoute
	}
	return a.nbr[a.off[v]+int32(rel)]
}

// classAt derives the route class of (d, v) from the selected slot's
// classIn. patched, when non-nil (during a Resolve pass), maps slots
// whose classIn was just rewritten to their pre-patch value, so warm
// starts see the state the stored routes were computed under.
func (t *packedTable) classAt(a *adjacency, patched map[int32]uint8, d int, v int32) uint8 {
	if int(v) == d {
		return uint8(policy.ClassOwn)
	}
	rel, _ := t.load(d, v)
	if rel == uint32(t.deg[v]) {
		return 0
	}
	s := a.off[v] + int32(rel)
	if patched != nil {
		if c, ok := patched[s]; ok {
			return c
		}
	}
	return a.classIn[s]
}

// distAt decodes the hop distance of (d, v); 0 at the destination and
// for unreachable entries, matching the dense rows.
func (t *packedTable) distAt(d int, v int32) uint16 {
	if int(v) == d {
		return 0
	}
	rel, raw := t.load(d, v)
	if rel == uint32(t.deg[v]) {
		return 0
	}
	if raw == distEscape {
		return t.overflow[d-t.dbase][v]
	}
	return uint16(raw)
}

// reencode re-expresses every row under a new adjacency after a rebuild
// renumbered the slots. Old shards are released as their rows are
// consumed, so the transient peak is one table plus one shard. Every
// stored next hop must still be a neighbor under cur — Resolve
// guarantees it by re-running removal-dirty destinations (pass 1)
// before any rebuild (pass 2): a rebuild only ever adds slots.
func (t *packedTable) reencode(old, cur *adjacency) *packedTable {
	nt := newPackedTable(cur, t.dbase, t.nd, t.shardSize)
	nt.overflow = t.overflow // (dest, node) keyed; slot renumbering does not touch it
	for si := range t.shards {
		lo := t.dbase + si*t.shardSize
		hi := lo + len(t.shards[si])/t.rowWords
		for d := lo; d < hi; d++ {
			for v := int32(0); v < int32(t.n); v++ {
				if int(v) == d {
					nt.setNoRoute(d, v)
					continue
				}
				rel, raw := t.load(d, v)
				if rel == uint32(t.deg[v]) {
					nt.setNoRoute(d, v)
					continue
				}
				u := old.nbr[old.off[v]+int32(rel)]
				dist := uint16(raw)
				if raw == distEscape {
					dist = t.overflow[d-t.dbase][v]
				}
				nt.setVia(cur, d, v, cur.slot(v, u), dist)
			}
		}
		t.shards[si] = nil
	}
	return nt
}

// clone deep-copies the mutable storage; the layout arrays are
// immutable per adjacency build and shared.
func (t *packedTable) clone() *packedTable {
	c := *t
	c.shards = make([][]uint64, len(t.shards))
	for i, sh := range t.shards {
		c.shards[i] = slices.Clone(sh)
	}
	c.overflow = make([]map[int32]uint16, len(t.overflow))
	for i, m := range t.overflow {
		if m != nil {
			c.overflow[i] = maps.Clone(m)
		}
	}
	return &c
}

// bytes reports the table's resident storage.
func (t *packedTable) bytes() int64 {
	b := int64(len(t.slotBits)) + int64(len(t.deg))*4 + int64(len(t.boff))*4
	for _, sh := range t.shards {
		b += int64(len(sh)) * 8
	}
	for _, m := range t.overflow {
		b += int64(len(m)) * 16
	}
	return b
}

// equalWindows reports whether two tables over identical adjacencies
// and identical windows hold identical routes. With equal layouts the
// encoding is canonical, so this is a word compare plus the overflow
// maps.
func (t *packedTable) equalWindows(o *packedTable) bool {
	if t.dbase != o.dbase || t.nd != o.nd || t.shardSize != o.shardSize {
		return false
	}
	for i := range t.shards {
		if !slices.Equal(t.shards[i], o.shards[i]) {
			return false
		}
	}
	for i := range t.overflow {
		if len(t.overflow[i]) != len(o.overflow[i]) {
			return false
		}
		for v, dd := range t.overflow[i] {
			if od, ok := o.overflow[i][v]; !ok || od != dd {
				return false
			}
		}
	}
	return true
}
