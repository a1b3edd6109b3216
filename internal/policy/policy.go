// Package policy implements the routing policies the paper targets:
// route filtering and ranking under the standard "customer / provider /
// peering" business relationships (paper §1, "As an initial step...").
//
// The rules are the classic Gao–Rexford conditions, extended with
// sibling links the way measured AS topologies require:
//
//   - Export: a node exports to a customer or sibling every route it
//     uses; it exports to a peer or provider only its own routes and
//     routes learned from customers or siblings.
//   - Rank: customer routes over sibling routes over peer routes over
//     provider routes; then shorter paths; then a deterministic
//     tie-break on the neighbor ID the route was learned from.
//
// Every protocol in this repository (the static solver, BGP, and
// Centaur) takes its policy decisions from this package, so converged
// outcomes are directly comparable.
package policy

import (
	"fmt"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// RouteClass classifies how a route was learned, which determines both
// its preference and its export scope.
type RouteClass uint8

// Route classes in decreasing order of preference.
const (
	// ClassOwn is a route to a destination the node itself originates.
	ClassOwn RouteClass = iota + 1
	// ClassCustomer is a route learned from a customer.
	ClassCustomer
	// ClassSibling is a route learned from a sibling.
	ClassSibling
	// ClassPeer is a route learned from a settlement-free peer.
	ClassPeer
	// ClassProvider is a route learned from a provider.
	ClassProvider
)

// String returns the lowercase class name.
func (c RouteClass) String() string {
	switch c {
	case ClassOwn:
		return "own"
	case ClassCustomer:
		return "customer"
	case ClassSibling:
		return "sibling"
	case ClassPeer:
		return "peer"
	case ClassProvider:
		return "provider"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ClassOf maps the relationship of the announcing neighbor to the class
// of a route learned from it: a route from a customer is a customer
// route, and so on.
func ClassOf(rel topology.Relationship) RouteClass {
	switch rel {
	case topology.RelCustomer:
		return ClassCustomer
	case topology.RelSibling:
		return ClassSibling
	case topology.RelPeer:
		return ClassPeer
	case topology.RelProvider:
		return ClassProvider
	default:
		return 0
	}
}

// Candidate is one route option at a node: the full path from the node
// to the destination, its class, and the neighbor it was learned from
// (None for self-originated routes).
type Candidate struct {
	Path  routing.Path
	Class RouteClass
	Via   routing.NodeID
}

// Policy is the pluggable policy interface used by all protocols. The
// paper's tuple <Imp, Exp, Pref> (§4.3) maps onto Accept (import
// filter), Export (export filter), and Better (local preference).
type Policy interface {
	// Accept is the import filter: whether node self keeps a route with
	// path p learned from neighbor via.
	Accept(self, via routing.NodeID, p routing.Path) bool
	// Export is the export filter: whether node self may announce a
	// route of class cl to a neighbor whose relationship to self is rel.
	// The relationship is all a policy learns of the neighbor: two
	// neighbors of the same relationship are exported the same routes,
	// which is what lets experiments.Figure5 keep one announced view per
	// relationship instead of one per neighbor.
	//
	// Export must be a pure function of (self, cl, rel): the same answer
	// on every call, whatever else has happened. A Centaur node asks it
	// once per neighbor and route class when it is built, groups its
	// neighbors into export classes by the answers, and keeps one
	// announced view per class from then on.
	Export(self routing.NodeID, cl RouteClass, rel topology.Relationship) bool
	// Better is the ranking function: whether candidate a is strictly
	// preferred over candidate b at node self. Over the candidates for
	// one destination it must be a strict weak order: irreflexive (no
	// candidate is better than itself), transitive, and with transitive
	// incomparability (two candidates neither of which is better are
	// equally good, and equally good is transitive). The protocols rely
	// on it: a best candidate then stays best when another candidate
	// worsens, and an offer better than the best is better than every
	// candidate, so Centaur and BGP decide from the one offer an event
	// changed whenever that comparison is strict.
	Better(self routing.NodeID, a, b Candidate) bool
}

// TieBreakMode selects the within-class preference model. The
// Gao-Rexford stability conditions only constrain the between-class
// order (customer routes preferred over peer/provider routes) plus the
// export rule and provider acyclicity; the preference *within* a class
// is free, and real ASes fill it with uncoordinated local preference,
// IGP distances, router IDs, and route age. The mode chosen shapes how
// much path divergence — and therefore how much P-graph multi-homing
// and how many Permission Lists — the network exhibits (Tables 4-5).
type TieBreakMode uint8

const (
	// TieLowestVia ranks class, then path length, then the lowest
	// neighbor ID: a globally consistent order that collapses each
	// node's path set into a near-tree. Zero value; convenient for
	// hand-computable unit tests.
	TieLowestVia TieBreakMode = iota
	// TieHashed ranks class, then path length, then a per-(node,
	// destination) hash: shortest-path routing with uncoordinated final
	// tie-breaks, the closest model of BGP's default decision process.
	TieHashed
	// TieHashedPreferred ranks class, then the per-(node, destination)
	// hash, then length: models diverse local-preference settings that
	// override path length everywhere.
	TieHashedPreferred
	// TieOverride models deployed traffic engineering: for half of all
	// (node, destination) pairs — selected by hash — the node applies a
	// per-destination local-preference override (class, then hash, then
	// length); for the rest it uses its consistent default order
	// (class, then length, then per-node hash). Divergences are
	// therefore frequent but small and scattered, which is what
	// reproduces the paper's P-graph structure: many Permission Lists,
	// almost all with very few entries (Tables 4-5); see EXPERIMENTS.md.
	TieOverride
)

// String names the mode.
func (m TieBreakMode) String() string {
	switch m {
	case TieLowestVia:
		return "lowest-via"
	case TieHashed:
		return "hashed"
	case TieHashedPreferred:
		return "hashed-preferred"
	case TieOverride:
		return "override"
	default:
		return fmt.Sprintf("tiebreak(%d)", uint8(m))
	}
}

// GaoRexford is the standard business-relationship policy. The zero
// value is ready to use and breaks ties by the lowest neighbor ID.
type GaoRexford struct {
	// TieBreak selects the within-class preference model.
	TieBreak TieBreakMode
}

var _ Policy = GaoRexford{}

// Accept implements Policy. Gao–Rexford has no import filtering beyond
// the loop check, which every protocol performs structurally, so Accept
// rejects only looping paths.
func (GaoRexford) Accept(self, via routing.NodeID, p routing.Path) bool {
	_ = via
	// A path that already contains self would loop when self prepends
	// itself (paper §2.2, Observation 1: loop detection).
	for i := 0; i < len(p); i++ {
		if p[i] == self {
			return false
		}
	}
	return true
}

// Export implements Policy: everything goes to customers and siblings;
// only own, customer, and sibling routes go to peers and providers.
func (GaoRexford) Export(self routing.NodeID, cl RouteClass, rel topology.Relationship) bool {
	_ = self
	switch rel {
	case topology.RelCustomer, topology.RelSibling:
		return true
	case topology.RelPeer, topology.RelProvider:
		return cl == ClassOwn || cl == ClassCustomer || cl == ClassSibling
	default:
		return false
	}
}

// Better implements Policy: lower class first (customer < peer <
// provider), then the within-class order selected by TieBreak. Every
// mode is a strict total order over same-destination candidates, which
// Gao-Rexford safety requires and which keeps the solver, BGP, and
// Centaur convergent to the identical state.
func (g GaoRexford) Better(self routing.NodeID, a, b Candidate) bool {
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	dest := a.Path.Dest()
	prefFirst := g.TieBreak == TieHashedPreferred ||
		(g.TieBreak == TieOverride && Overridden(self, dest))
	if prefFirst {
		ha, hb := TieHash(self, a.Via, dest), TieHash(self, b.Via, dest)
		if ha != hb {
			return ha < hb
		}
	}
	if a.Path.Len() != b.Path.Len() {
		return a.Path.Len() < b.Path.Len()
	}
	switch g.TieBreak {
	case TieHashed:
		ha, hb := TieHash(self, a.Via, dest), TieHash(self, b.Via, dest)
		if ha != hb {
			return ha < hb
		}
	case TieOverride:
		// The non-overridden default order: a consistent per-node hash
		// (dest-independent), so the bulk of the path set stays
		// tree-like.
		ha, hb := TieHash(self, a.Via, routing.None), TieHash(self, b.Via, routing.None)
		if ha != hb {
			return ha < hb
		}
	}
	return a.Via < b.Via
}

// Overridden reports whether, under TieOverride, node self applies a
// per-destination local-preference override for dest. Half of all
// (node, destination) pairs do, selected by hash.
func Overridden(self, dest routing.NodeID) bool {
	return TieHash(self, routing.None, dest)&1 == 1
}

// TieHash is the per-(node, destination) neighbor-preference hash used
// by the hashed tie-break: a strict pseudo-random but deterministic
// ordering of vias. The destination is part of the key because real
// final tie-breaks (route age, session details) are uncoordinated
// across destinations, and that per-destination independence is what
// creates the path re-merging — and hence the Permission Lists — the
// paper's Tables 4-5 measure. Exposed so the static solver can apply
// the identical ordering.
func TieHash(self, via, dest routing.NodeID) uint64 {
	x := uint64(self)<<40 ^ uint64(via)<<20 ^ uint64(dest)
	// splitmix64 finalizer: cheap, well-mixed, dependency-free.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Best returns the most preferred candidate under pol at node self, or a
// zero Candidate (nil Path) when cands is empty.
func Best(pol Policy, self routing.NodeID, cands []Candidate) Candidate {
	var best Candidate
	for _, c := range cands {
		if len(c.Path) == 0 {
			continue
		}
		if len(best.Path) == 0 || pol.Better(self, c, best) {
			best = c
		}
	}
	return best
}

// ExportCompliant reports whether path p respects the Gao–Rexford
// export rules on graph g (is valley-free): p must be constructible by
// a chain of compliant export decisions starting at its destination. On
// sibling-free graphs this is the classic phase condition — zero or
// more uphill (customer-to-provider) steps, at most one peer step, then
// zero or more downhill steps — but a phase walk that merely treats
// sibling edges as transparent rejects legal paths: a route learned
// from a sibling carries ClassSibling and is legally exportable to
// peers and providers (see Export), so a provider-learned route
// laundered through a sibling pair may climb again. ExportCompliant
// therefore replays the export chain itself. It returns false if any
// hop of p is not an edge of g.
func ExportCompliant(g *topology.Graph, p routing.Path) bool {
	_, ok := ExportViolation(g, p)
	return ok
}

// ExportViolation replays the announcement chain that built path p on
// graph g: the destination p[len-1] originates its own route
// (ClassOwn), and each node p[i+1] exports its current route to p[i],
// where it is re-classified by the receiver's view of the announcer.
// It returns the first non-compliant hop, as the index i such that
// announcer p[i+1]'s export to receiver p[i] violated the export rule
// (or the hop does not exist in g), walking from the destination
// toward the source — so the returned hop is the original leak, not a
// downstream symptom. ok is true when the whole chain is compliant
// (hop is then -1).
func ExportViolation(g *topology.Graph, p routing.Path) (hop int, ok bool) {
	cl := ClassOwn
	for i := len(p) - 2; i >= 0; i-- {
		rel, present := g.Rel(p[i+1], p[i]) // the receiver, as the announcer sees it
		if !present {
			return i, false
		}
		if !(GaoRexford{}).Export(p[i+1], cl, rel) {
			return i, false
		}
		back, _ := g.Rel(p[i], p[i+1]) // the announcer, as the receiver sees it
		cl = ClassOf(back)
	}
	return -1, true
}
