package bgp

import (
	"maps"
	"slices"
	"unsafe"

	"centaur/internal/sim"
)

var _ sim.Snapshotter = (*Node)(nil)

// ForkProtocol implements sim.Snapshotter: an independent deep copy of
// the node's converged state, bound to the fork's env. The receiver is
// only read — many forks are taken concurrently from one checkpointed
// template, and the race detector gates this in CI.
//
// What is shared vs. copied follows the package's mutation contract:
// cfg, pol and nbrs never change after construction, and routing.Path
// values are immutable once installed (Prepend copies), so those are
// shared; everything Handle/LinkDown/LinkUp mutates is copied. The
// rows' RIB entries are copied into one arena, each row's lists cut
// from it with no spare capacity, so a fork costs two allocations
// for the table however many rows it has and a later insert into one
// row reallocates that row alone. The candidate buffer starts empty.
// MRAI and RCN mask timers need no transfer: a quiesced network has no
// pending timer events, and each firing disarms its flag (mraiArmed)
// or expires its mask entry before quiescence can be reached.
func (n *Node) ForkProtocol(env sim.Env) sim.Protocol {
	out := &Node{
		cfg:       n.cfg,
		pol:       n.pol,
		env:       env,
		self:      n.self,
		idx:       n.idx,
		nbrs:      n.nbrs,
		peers:     slices.Clone(n.peers),
		rows:      slices.Clone(n.rows),
		failed:    maps.Clone(n.failed),
		failedGen: n.failedGen,
	}
	for i := range out.peers {
		p := &out.peers[i]
		p.pending = slices.Clone(p.pending)
		p.rcn = slices.Clone(p.rcn)
	}
	arena := make([]ribEntry, 0, n.ribEntries())
	cut := func(es []ribEntry) []ribEntry {
		if len(es) == 0 {
			return nil
		}
		at := len(arena)
		arena = append(arena, es...)
		return arena[at:len(arena):len(arena)]
	}
	for i := range out.rows {
		r := &out.rows[i]
		r.in, r.out = cut(r.in), cut(r.out)
	}
	return out
}

// ribEntries counts the Adj-RIB-In and advertised entries of all rows.
func (n *Node) ribEntries() int {
	total := 0
	for i := range n.rows {
		total += len(n.rows[i].in) + len(n.rows[i].out)
	}
	return total
}

// SnapshotBytes implements sim.Snapshotter: the bytes ForkProtocol
// copies — the row table, its RIB entries, the per-neighbor state —
// plus the path bodies those entries reference. The bodies are shared,
// not copied, and one body backs a best entry, the advertised entries
// made from it and the in-flight updates, so counting it once per
// referencing entry overestimates; fine for a high-water gauge.
func (n *Node) SnapshotBytes() int {
	const (
		rowSize    = int(unsafe.Sizeof(row{}))
		entrySize  = int(unsafe.Sizeof(ribEntry{}))
		peerSize   = int(unsafe.Sizeof(peer{}))
		idSize     = int(unsafe.Sizeof(n.self))
		noticeSize = int(unsafe.Sizeof(rcnNotice{}))
		maskSize   = int(unsafe.Sizeof(edgeKey{})) + 8
	)
	b := len(n.rows)*rowSize + n.ribEntries()*entrySize + len(n.peers)*peerSize + len(n.failed)*maskSize
	for i := range n.rows {
		r := &n.rows[i]
		b += len(r.best.Path) * idSize
		for _, e := range r.in {
			b += len(e.path) * idSize
		}
		for _, e := range r.out {
			b += len(e.path) * idSize
		}
	}
	for i := range n.peers {
		b += len(n.peers[i].pending)*idSize + len(n.peers[i].rcn)*noticeSize
	}
	return b
}
