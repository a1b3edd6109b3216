package sim

import (
	"centaur/internal/routing"
	"centaur/internal/topology"
)

// PeerTable holds one *S per peer of a node, for adapters that keep
// per-neighbor session state (the reliable transport here, the liveness
// detector). A neighbor's entry sits in a slice parallel to the node's
// adjacency list, found like nodeEnv.ref finds its link: the entry
// resolved last and the one after it first, then a bisection. Lookups
// hash nothing and allocate nothing. A peer outside the adjacency list
// (never reached in a simulation, whose Send refuses it; possible with
// a test's Env) gets an entry in a short list scanned linearly, so the
// adapter behaves the same whatever Env it runs under.
//
// Entries are pointers and never move, so an adapter may compare a
// looked-up entry with one it captured earlier.
type PeerTable[S any] struct {
	nbrs []topology.Neighbor // ascending by ID, as Env.Neighbors returns them
	slot []*S                // parallel to nbrs
	hint int
	far  []farPeer[S]
}

type farPeer[S any] struct {
	id routing.NodeID
	s  *S
}

// NewPeerTable returns an empty table over nbrs, a node's adjacency
// list sorted by neighbor ID (Env.Neighbors). The table keeps nbrs; it
// does not modify it.
func NewPeerTable[S any](nbrs []topology.Neighbor) PeerTable[S] {
	return PeerTable[S]{nbrs: nbrs, slot: make([]*S, len(nbrs))}
}

// index returns the position of peer in the adjacency list, or -1.
func (t *PeerTable[S]) index(peer routing.NodeID) int {
	nbrs := t.nbrs
	if h := t.hint; h < len(nbrs) {
		if nbrs[h].ID == peer {
			return h
		}
		if h++; h < len(nbrs) && nbrs[h].ID == peer {
			t.hint = h
			return h
		}
	}
	lo, hi := 0, len(nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid].ID < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nbrs) && nbrs[lo].ID == peer {
		t.hint = lo
		return lo
	}
	return -1
}

// Get returns peer's entry, or nil when none was set.
func (t *PeerTable[S]) Get(peer routing.NodeID) *S {
	if i := t.index(peer); i >= 0 {
		return t.slot[i]
	}
	for _, f := range t.far {
		if f.id == peer {
			return f.s
		}
	}
	return nil
}

// Set makes s peer's entry.
func (t *PeerTable[S]) Set(peer routing.NodeID, s *S) {
	if i := t.index(peer); i >= 0 {
		t.slot[i] = s
		return
	}
	for i := range t.far {
		if t.far[i].id == peer {
			t.far[i].s = s
			return
		}
	}
	t.far = append(t.far, farPeer[S]{id: peer, s: s})
}
