package pgraph

import (
	"sort"

	"centaur/internal/bloom"
	"centaur/internal/routing"
)

// DestFilter is one compressed Permission List entry (§4.1): the
// destination set of a (destination list, next hop) group, carried
// either as a Bloom filter over the destinations or as the explicit
// sorted list when that is smaller on the wire. Exactly one of Dests
// and Filter is non-nil.
//
// Compression changes the entry's semantics: a Bloom filter can falsely
// report a destination as permitted. Membership checks therefore go
// through PermissionList.PermitReport, which verifies filter-positive
// answers against the explicit pairs when they are available and denies
// (and reports) the hit otherwise — so a false positive can widen a
// query but never a routing decision. See DESIGN.md.
type DestFilter struct {
	Next   routing.NodeID
	Dests  []routing.NodeID // sorted ascending; nil when Filter is set
	Filter *bloom.Filter
}

// Equal reports whether two compressed entries are identical.
func (f DestFilter) Equal(other DestFilter) bool {
	if f.Next != other.Next || len(f.Dests) != len(other.Dests) {
		return false
	}
	for i, d := range f.Dests {
		if other.Dests[i] != d {
			return false
		}
	}
	return f.Filter.Equal(other.Filter)
}

// Clone returns an independent copy of the entry.
func (f DestFilter) Clone() DestFilter {
	out := f
	out.Dests = append([]routing.NodeID(nil), f.Dests...)
	if f.Filter != nil {
		out.Filter = f.Filter.Clone()
	}
	return out
}

// cloneFilters deep-copies a compressed Permission List.
func cloneFilters(fs []DestFilter) []DestFilter {
	if fs == nil {
		return nil
	}
	out := make([]DestFilter, len(fs))
	for i, f := range fs {
		out[i] = f.Clone()
	}
	return out
}

// SetFilters installs the compressed representation on the list. A list
// received off the wire may carry only filters (no explicit pairs); a
// simulated receiver carries both, and PermitReport uses the pairs as
// the oracle that catches Bloom false positives.
func (pl *PermissionList) SetFilters(fs []DestFilter) { pl.filters = fs }

// Filters returns the compressed representation, nil when the list is
// explicit-only. Shared storage — callers must not modify it.
func (pl *PermissionList) Filters() []DestFilter { return pl.filters }

// PermitReport is Permit with false-positive attribution. When the list
// carries a compressed representation, membership is answered from it:
// a filter miss is authoritative (Bloom filters have no false
// negatives, so the explicit list would deny too), and a filter hit is
// verified against the explicit pairs when present. A hit the pairs
// contradict is a Bloom false positive: the check denies the path —
// compression may never grant what the policy did not — and reports
// fp=true so the caller can count and trace it. Without explicit pairs
// (a pure wire consumer) the filter's answer is trusted.
func (pl *PermissionList) PermitReport(dest, next routing.NodeID) (ok, fp bool) {
	if pl.filters == nil {
		return pl.Permit(dest, next), false
	}
	i := sort.Search(len(pl.filters), func(i int) bool { return pl.filters[i].Next >= next })
	if i == len(pl.filters) || pl.filters[i].Next != next {
		return false, false
	}
	f := pl.filters[i]
	if f.Filter == nil {
		j := sort.Search(len(f.Dests), func(j int) bool { return f.Dests[j] >= dest })
		return j < len(f.Dests) && f.Dests[j] == dest, false
	}
	if !f.Filter.Has(dest) {
		return false, false
	}
	if len(pl.pairs) > 0 && !pl.Permit(dest, next) {
		return false, true
	}
	return true, false
}
