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

// filterUvarintLen mirrors the wire package's uvarint length accounting
// (1–10 bytes); CompressPerm needs it to decide per group whether the
// Bloom form actually saves bytes. Pinned against the real encoder by
// the wire package's tests.
func filterUvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// filterWireLen returns the encoded body length of one compressed entry
// as the wire package encodes it: the next hop, a one-byte form tag,
// then either the length-prefixed destination list or the filter
// geometry and bit array.
func filterWireLen(f DestFilter) int {
	n := filterUvarintLen(uint64(f.Next)) + 1 // form tag is 0 or 1: one byte
	if f.Filter != nil {
		m := f.Filter.SizeBits()
		return n + filterUvarintLen(m) + filterUvarintLen(uint64(f.Filter.Hashes())) + int((m+7)/8)
	}
	n += filterUvarintLen(uint64(len(f.Dests)))
	for _, d := range f.Dests {
		n += filterUvarintLen(uint64(d))
	}
	return n
}

// FiltersWireLen returns the total encoded length of a compressed
// Permission List (group count prefix plus each entry body), matching
// the wire package's size accounting.
func FiltersWireLen(fs []DestFilter) int {
	n := filterUvarintLen(uint64(len(fs)))
	for _, f := range fs {
		n += filterWireLen(f)
	}
	return n
}

// PermWireLen returns the encoded length of canonical (Next, Dest)-sorted
// pairs in the wire package's grouped explicit form: a group-count
// prefix, then per group the next hop, a destination count, and the
// destinations. Pinned against the real encoder by the wire package's
// tests; CompressPerm needs it to decide whether compression pays at
// all (the compressed container costs one form-tag byte per group, so a
// list of small groups is cheaper sent explicitly).
func PermWireLen(perm []PermEntry) int {
	n := 0
	groups := 0
	for i, e := range perm {
		if i == 0 || e.Next != perm[i-1].Next {
			groups++
			n += filterUvarintLen(uint64(e.Next))
			run := 1
			for j := i + 1; j < len(perm) && perm[j].Next == e.Next; j++ {
				run++
			}
			n += filterUvarintLen(uint64(run))
		}
		n += filterUvarintLen(uint64(e.Dest))
	}
	return n + filterUvarintLen(uint64(groups))
}

// CompressPerm converts canonical (Next, Dest)-sorted Permission List
// pairs into the §4.1 compressed form. Each next-hop group gets a Bloom
// filter sized for its destination count at fpRate when that is smaller
// on the wire than the explicit destination list; small groups (the
// common case per Table 5) keep the explicit form. The decision is then
// made once more for the list as a whole: the compressed container pays
// a form-tag byte per group, so unless the filtered groups save more
// than the tags cost — compare against the plain grouped encoding via
// PermWireLen — CompressPerm returns nil and the sender keeps the
// explicit form. A non-nil result is therefore always strictly smaller
// on the wire than the explicit list it replaces.
func CompressPerm(perm []PermEntry, fpRate float64) []DestFilter {
	if len(perm) == 0 {
		return nil
	}
	var out []DestFilter
	for i := 0; i < len(perm); {
		j := i
		for j < len(perm) && perm[j].Next == perm[i].Next {
			j++
		}
		dests := make([]routing.NodeID, 0, j-i)
		for _, e := range perm[i:j] {
			dests = append(dests, e.Dest)
		}
		explicit := DestFilter{Next: perm[i].Next, Dests: dests}
		fl := bloom.New(len(dests), fpRate)
		for _, d := range dests {
			fl.Add(d)
		}
		compressed := DestFilter{Next: perm[i].Next, Filter: fl}
		if filterWireLen(compressed) < filterWireLen(explicit) {
			out = append(out, compressed)
		} else {
			out = append(out, explicit)
		}
		i = j
	}
	if FiltersWireLen(out) >= PermWireLen(perm) {
		return nil
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
