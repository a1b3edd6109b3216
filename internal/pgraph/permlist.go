// Package pgraph implements the paper's central data structure, the
// P-graph (policy graph, §3.2.2): a directed graph of downstream links
// rooted at the node that announced them, annotated with Permission
// Lists (§3.2.4, §4.1) that restrict which paths may be derived.
//
// The two operational algorithms from the paper are provided:
// DerivePath (Table 1) reconstructs the unique policy-compliant path for
// a destination, and BuildGraph (Table 2) constructs a local P-graph
// with Permission Lists from a selected path set.
package pgraph

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"centaur/internal/routing"
)

// PermEntry is one per-dest-next Permission List pair (§4.1): the path
// identified by this entry is the one reaching Dest whose next hop after
// the multi-homed node is Next. Next is routing.None when the path
// terminates at the multi-homed node itself (the node is the
// destination).
type PermEntry struct {
	Dest routing.NodeID
	Next routing.NodeID
}

// String renders the entry in the paper's <Destination, NextHop> form.
func (e PermEntry) String() string {
	return fmt.Sprintf("<dest:%v,next:%v>", e.Dest, e.Next)
}

// PermissionList is the set of policy-compliant paths allowed to use a
// link, in per-dest-next encoding. Destinations sharing a next hop are
// grouped into a single entry, matching §4.1's "destinations with the
// same next hop can be grouped into one pair entry". The zero value is
// an empty list ready for use.
//
// The pairs live in one slice kept sorted by (Next, Dest) — the
// canonical wire order — so membership is a binary search and Pairs is
// a plain copy; a next-hop group is a contiguous run.
type PermissionList struct {
	pairs []PermEntry
	// filters is the optional compressed §4.1 representation (see
	// filter.go); when set, PermitReport answers from it and uses the
	// pairs only as the false-positive oracle.
	filters []DestFilter
}

// key packs a pair so that integer order is (Next, Dest) order.
func (e PermEntry) key() uint64 { return uint64(e.Next)<<32 | uint64(e.Dest) }

// comparePerm orders pairs by (Next, Dest).
func comparePerm(a, b PermEntry) int { return cmp.Compare(a.key(), b.key()) }

// find returns the position of (dest, next) in the sorted pairs, or the
// position it would be inserted at.
func (pl *PermissionList) find(dest, next routing.NodeID) (int, bool) {
	key := PermEntry{Dest: dest, Next: next}.key()
	lo, hi := 0, len(pl.pairs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); pl.pairs[mid].key() < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(pl.pairs) && pl.pairs[lo].key() == key
}

// Add records that the path to dest whose next hop (after the
// multi-homed node) is next may use the link. Adding a duplicate pair is
// a no-op.
func (pl *PermissionList) Add(dest, next routing.NodeID) {
	if i, dup := pl.find(dest, next); !dup {
		pl.pairs = slices.Insert(pl.pairs, i, PermEntry{Dest: dest, Next: next})
	}
}

// setPairs replaces the list's pairs with the given ones, taking
// ownership of the slice. Bulk builders append in any order and let this
// sort once; input that is already canonical (strictly ascending, as
// every honest announcement is) is adopted as is.
func (pl *PermissionList) setPairs(pairs []PermEntry) {
	for i := 1; i < len(pairs); i++ {
		if comparePerm(pairs[i-1], pairs[i]) >= 0 {
			slices.SortFunc(pairs, comparePerm)
			pairs = slices.Compact(pairs)
			break
		}
	}
	pl.pairs = pairs
}

// Remove deletes the (dest, next) pair; it reports whether the pair was
// present.
func (pl *PermissionList) Remove(dest, next routing.NodeID) bool {
	i, ok := pl.find(dest, next)
	if ok {
		pl.pairs = slices.Delete(pl.pairs, i, i+1)
	}
	return ok
}

// Permit reports whether the path to dest via next hop next is allowed
// to use the link (paper Table 1, line 8).
func (pl *PermissionList) Permit(dest, next routing.NodeID) bool {
	_, ok := pl.find(dest, next)
	return ok
}

// NumEntries returns the number of grouped entries — (destination list,
// next hop) pairs — which is the quantity the paper's Table 5 reports.
func (pl *PermissionList) NumEntries() int {
	n := 0
	for i, e := range pl.pairs {
		if i == 0 || e.Next != pl.pairs[i-1].Next {
			n++
		}
	}
	return n
}

// NumPairs returns the total number of (dest, next) pairs before
// grouping, i.e. the number of distinct policy-compliant paths the list
// describes.
func (pl *PermissionList) NumPairs() int { return len(pl.pairs) }

// Empty reports whether the list permits no paths at all. A list
// carrying only a compressed representation (a pure wire consumer's
// view) is not empty: it still restricts derivation.
func (pl *PermissionList) Empty() bool { return len(pl.pairs) == 0 && len(pl.filters) == 0 }

// Pairs returns a copy of every (dest, next) pair sorted by (next,
// dest), for deterministic wire encoding and comparison.
func (pl *PermissionList) Pairs() []PermEntry {
	return append(make([]PermEntry, 0, len(pl.pairs)), pl.pairs...)
}

// Clone returns an independent copy of the list.
func (pl *PermissionList) Clone() *PermissionList {
	return &PermissionList{pairs: slices.Clone(pl.pairs), filters: cloneFilters(pl.filters)}
}

// String renders the list's grouped entries sorted by next hop, e.g.
// "{next:N3 dests:[N5 N7]; next:N4 dests:[N9]}".
func (pl *PermissionList) String() string {
	if pl == nil || len(pl.pairs) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range pl.pairs {
		switch {
		case i == 0:
			fmt.Fprintf(&b, "next:%v dests:[%v", e.Next, e.Dest)
		case e.Next != pl.pairs[i-1].Next:
			fmt.Fprintf(&b, "]; next:%v dests:[%v", e.Next, e.Dest)
		default:
			fmt.Fprintf(&b, " %v", e.Dest)
		}
	}
	b.WriteString("]}")
	return b.String()
}
