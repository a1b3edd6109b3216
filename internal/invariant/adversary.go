package invariant

import (
	"fmt"
	"sort"
	"strings"

	"centaur/internal/adversary"
	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
	"centaur/internal/trace"
)

// This file extends the invariant checker into the adversarial-suite
// detector (internal/adversary): instead of asking "does the quiesced
// state equal the oracle", it asks "which RIB entries are contaminated
// by an attacker, how far did the contamination travel, and how much of
// the network ever held bad state". Classification is always against
// the TRUE topology — under relationship-inference noise the protocols
// route on the noisy labels, and the detector's job is precisely to
// measure the damage relative to ground truth.

// Contamination kinds, ordered from most to least specific.
const (
	// BadForeignOrigin: the entry's path ends somewhere other than the
	// destination, or traverses a link that does not exist in the true
	// topology — a hijacked origination or a fabricated adjacency.
	BadForeignOrigin = "foreign-origin"
	// BadLeakedPath: the path's export chain violates Gao–Rexford
	// exactly at an attacker's hop — the node is using a leaked route.
	BadLeakedPath = "leaked-path"
	// BadValleyViaLeak: the export chain breaks at an honest hop but an
	// attacker sits on the path — contamination propagated beyond the
	// leak through subsequent honest (or noise-confused) exports.
	BadValleyViaLeak = "valley-via-leak"
	// BadValley: the export chain breaks with no attacker involved —
	// under relationship noise this is inference-error fallout, not an
	// attack; it is classified so the two are never conflated.
	BadValley = "valley"
)

// ClassifyBad inspects one RIB entry (a node's selected path toward
// dest) against the true topology g and the misbehavior model m. It
// returns the contamination kind, the attacker the entry is attributed
// to (routing.None for noise-only valleys), and whether the entry is
// bad at all. A nil path is never bad.
func ClassifyBad(g *topology.Graph, m *adversary.Model, dest routing.NodeID, p routing.Path) (kind string, attacker routing.NodeID, bad bool) {
	if len(p) == 0 {
		return "", routing.None, false
	}
	if p[len(p)-1] != dest {
		return BadForeignOrigin, attackerEndOrOn(m, p), true
	}
	for i := 0; i+1 < len(p); i++ {
		if _, present := g.Rel(p[i], p[i+1]); !present {
			if m.IsAttacker(p[i]) {
				return BadForeignOrigin, p[i], true
			}
			return BadForeignOrigin, firstAttackerOn(m, p), true
		}
	}
	hop, ok := policy.ExportViolation(g, p)
	if ok {
		return "", routing.None, false
	}
	if m.IsAttacker(p[hop+1]) {
		return BadLeakedPath, p[hop+1], true
	}
	if a := firstAttackerOn(m, p); a != routing.None {
		return BadValleyViaLeak, a, true
	}
	return BadValley, routing.None, true
}

// firstAttackerOn returns the attacker closest to the destination on p,
// or routing.None.
func firstAttackerOn(m *adversary.Model, p routing.Path) routing.NodeID {
	for i := len(p) - 1; i >= 0; i-- {
		if m.IsAttacker(p[i]) {
			return p[i]
		}
	}
	return routing.None
}

// attackerEndOrOn prefers the path's final node when it is an attacker
// (a BGP forged origination ends at the hijacker), falling back to any
// attacker on the path.
func attackerEndOrOn(m *adversary.Model, p routing.Path) routing.NodeID {
	if m.IsAttacker(p[len(p)-1]) {
		return p[len(p)-1]
	}
	return firstAttackerOn(m, p)
}

// AdvTracker observes a network under attack and records which honest
// nodes ever held contaminated RIB state. Install it with Install
// BEFORE sim.Network.Run: it subscribes to the network's event stream,
// so every route change is classified synchronously at the instant it
// happens — "ever held bad state" needs no per-instant full scans. Each
// contaminated change also emits an adv-bad note into the causal
// trace, right after the route event and attributed to the update that
// caused it.
type AdvTracker struct {
	g   *topology.Graph
	m   *adversary.Model
	net *sim.Network

	badEvents int
	ever      map[routing.NodeID]struct{}
	everKinds map[string]int
	// attr[a] is the set of honest nodes whose contamination was ever
	// attributed to attacker a; it drives the propagation radius.
	attr map[routing.NodeID]map[routing.NodeID]struct{}
}

// NewAdvTracker builds a tracker classifying against the true topology
// g for misbehavior model m.
func NewAdvTracker(g *topology.Graph, m *adversary.Model, net *sim.Network) *AdvTracker {
	return &AdvTracker{
		g:         g,
		m:         m,
		net:       net,
		ever:      make(map[routing.NodeID]struct{}),
		everKinds: make(map[string]int),
		attr:      make(map[routing.NodeID]map[routing.NodeID]struct{}),
	}
}

// Install subscribes the tracker to the network's event stream.
func (t *AdvTracker) Install() {
	t.net.Observe(func(ev sim.TraceEvent) {
		if ev.Kind == sim.TraceRouteChange && t.audit(ev.From, ev.To) {
			t.net.Emit(trace.NoteAdvBad, ev.From, ev.To)
		}
	})
}

// audit classifies the changed (node, dest) entry and reports whether
// it is contaminated.
func (t *AdvTracker) audit(node, dest routing.NodeID) bool {
	if t.m.IsAttacker(node) {
		return false // the adversary's own RIB is not "contaminated"
	}
	rib, ok := sim.Unwrap(t.net.Node(node)).(PathRIB)
	if !ok {
		return false
	}
	kind, attacker, bad := ClassifyBad(t.g, t.m, dest, rib.BestPath(dest))
	if !bad {
		return false
	}
	t.badEvents++
	t.ever[node] = struct{}{}
	t.everKinds[kind]++
	if attacker != routing.None {
		set := t.attr[attacker]
		if set == nil {
			set = make(map[routing.NodeID]struct{})
			t.attr[attacker] = set
		}
		set[node] = struct{}{}
	}
	return true
}

// AdvReport is the detector's summary for one quiesced adversarial run.
type AdvReport struct {
	// Honest is the number of non-attacker nodes (the containment
	// denominator).
	Honest int
	// BadEvents counts contaminated route changes observed during the
	// run (transitions, not distinct entries).
	BadEvents int
	// EverContaminated / FinalContaminated are the honest nodes whose
	// RIB held bad state at any instant / still holds it at quiescence.
	EverContaminated  int
	FinalContaminated int
	// EverKinds / FinalKinds break observations down by contamination
	// kind (BadForeignOrigin et al.).
	EverKinds  map[string]int
	FinalKinds map[string]int
	// Radius is the propagation radius: the maximum true-topology hop
	// distance from any attacker to an honest node whose contamination
	// was attributed to it (0 when nothing propagated). AttackerRadii
	// holds the per-attacker maxima.
	Radius        int
	AttackerRadii map[routing.NodeID]int
}

// EverFraction returns the fraction of honest nodes ever contaminated.
func (r AdvReport) EverFraction() float64 { return fracOf(r.EverContaminated, r.Honest) }

// FinalFraction returns the fraction of honest nodes contaminated at
// quiescence.
func (r AdvReport) FinalFraction() float64 { return fracOf(r.FinalContaminated, r.Honest) }

func fracOf(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// String renders the report compactly with deterministic key order.
func (r AdvReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ever %d/%d final %d/%d radius %d events %d",
		r.EverContaminated, r.Honest, r.FinalContaminated, r.Honest, r.Radius, r.BadEvents)
	for _, kv := range sortedCounts(r.FinalKinds) {
		fmt.Fprintf(&b, " %s=%d", kv.k, kv.v)
	}
	return b.String()
}

type kindCount struct {
	k string
	v int
}

func sortedCounts(m map[string]int) []kindCount {
	out := make([]kindCount, 0, len(m))
	for k, v := range m {
		out = append(out, kindCount{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}

// Report scans the quiesced final state (every honest node × every
// destination) and combines it with the run-time observations into the
// full detector summary.
func (t *AdvTracker) Report() AdvReport {
	r := AdvReport{
		BadEvents:        t.badEvents,
		EverContaminated: len(t.ever),
		EverKinds:        make(map[string]int, len(t.everKinds)),
		FinalKinds:       make(map[string]int),
		AttackerRadii:    make(map[routing.NodeID]int),
	}
	for k, v := range t.everKinds {
		r.EverKinds[k] = v
	}
	nodes := t.g.Nodes()
	finalBad := make(map[routing.NodeID]struct{})
	for _, id := range nodes {
		if t.m.IsAttacker(id) {
			continue
		}
		r.Honest++
		rib, ok := sim.Unwrap(t.net.Node(id)).(PathRIB)
		if !ok {
			continue
		}
		for _, dest := range nodes {
			if dest == id {
				continue
			}
			kind, attacker, bad := ClassifyBad(t.g, t.m, dest, rib.BestPath(dest))
			if !bad {
				continue
			}
			r.FinalKinds[kind]++
			finalBad[id] = struct{}{}
			// Quiesced bad state counts toward "ever held" too — the
			// audit hook can only see entries that changed at least
			// once after installation.
			t.ever[id] = struct{}{}
			if attacker != routing.None {
				set := t.attr[attacker]
				if set == nil {
					set = make(map[routing.NodeID]struct{})
					t.attr[attacker] = set
				}
				set[id] = struct{}{}
			}
		}
	}
	r.FinalContaminated = len(finalBad)
	r.EverContaminated = len(t.ever)
	for _, a := range t.m.Attackers() {
		radius := 0
		if set := t.attr[a]; len(set) > 0 {
			dist := bfsDistances(t.g, a)
			for node := range set {
				if d, ok := dist[node]; ok && d > radius {
					radius = d
				}
			}
		}
		r.AttackerRadii[a] = radius
		if radius > r.Radius {
			r.Radius = radius
		}
	}
	return r
}

// advStructuralRIB is the structural interface Centaur nodes expose for
// the denial scan: the per-neighbor announced P-graphs.
type advStructuralRIB interface {
	NeighborGraph(b routing.NodeID) *pgraph.Graph
}

// StructuralDenials scans every honest node's neighbor P-graphs for the
// destinations the adversary injected announcements for, and counts how
// each non-derivable one was denied (pgraph.DenialReason strings).
// This is the Permission-List containment mechanism made visible: a
// leaked Centaur announcement arrives as an un-rooted link fragment and
// is denied structurally ("unreachable" / "no-permit"), which is a
// different bucket from Bloom-filter false-positive denials (those are
// counted by the pl.fp telemetry, never here). Nodes not exposing
// neighbor graphs (BGP) contribute nothing. Keys with zero counts are
// absent; iteration over the result must sort keys.
func StructuralDenials(net *sim.Network, g *topology.Graph, m *adversary.Model) map[string]int {
	dests := m.InjectedDests()
	if len(dests) == 0 {
		return nil
	}
	counts := make(map[string]int)
	for _, id := range g.Nodes() {
		if m.IsAttacker(id) {
			continue
		}
		rib, ok := sim.Unwrap(net.Node(id)).(advStructuralRIB)
		if !ok {
			continue
		}
		for _, nb := range g.Neighbors(id) {
			ng := rib.NeighborGraph(nb.ID)
			if ng == nil {
				continue
			}
			for _, d := range dests {
				if d == id {
					continue
				}
				if _, ok, reason := ng.DerivePathReason(d); !ok && reason != pgraph.DenialAbsent {
					counts[reason.String()]++
				}
			}
		}
	}
	return counts
}
