// Package adversary models misbehaving nodes and noisy relationship
// inference for the scenario suite (ROADMAP item 4). A Model makes a
// configured set of attacker nodes violate the Gao–Rexford export
// discipline the way CAIR formalizes route incidents:
//
//   - Leak: re-export provider/peer-learned routes to providers and
//     peers (the classic route-leak; in Centaur, replay the received
//     link announcements of the leaked route verbatim).
//   - Hijack: originate a destination the attacker does not own.
//   - Intercept: keep the control plane honest but silently drop data
//     traffic toward the victim destination (forward the announcements,
//     drop the packets).
//
// The protocols consult the Model through nil-checked hooks
// (bgp.Config.Adversary, centaur.Config.Adversary) so the honest code
// paths stay untouched and runs without a Model are byte-identical to
// builds before this package existed.
//
// RelabelNoise separately models PARI-style relationship-inference
// error: a seeded relabeler that flips a configured fraction of
// c2p↔p2p edge labels before policy, solver, and Permission List
// construction.
//
// Everything here is deterministic: selection and relabeling use only
// local rand.Rand instances seeded from the experiment config (never
// the package-global math/rand state) and iterate nodes and edges in
// sorted order, so the same seed yields byte-identical scenarios at
// any worker count.
package adversary

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/topology"
)

// Kind is the attack a Model's nodes carry out.
type Kind uint8

const (
	// None disables the misbehavior model (noise-only scenarios).
	None Kind = iota
	// Leak re-exports provider/peer routes to providers and peers.
	Leak
	// Hijack originates a foreign destination.
	Hijack
	// Intercept forwards announcements honestly but drops data traffic
	// toward the victim destination.
	Intercept
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Leak:
		return "leak"
	case Hijack:
		return "hijack"
	case Intercept:
		return "intercept"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind parses a kind name as printed by String.
func ParseKind(s string) (Kind, error) {
	switch strings.TrimSpace(s) {
	case "none":
		return None, nil
	case "leak":
		return Leak, nil
	case "hijack":
		return Hijack, nil
	case "intercept":
		return Intercept, nil
	default:
		return None, fmt.Errorf("adversary: unknown kind %q", s)
	}
}

// ParseKinds parses a comma-separated kind list.
func ParseKinds(s string) ([]Kind, error) {
	var out []Kind
	for _, f := range strings.Split(s, ",") {
		if strings.TrimSpace(f) == "" {
			continue
		}
		k, err := ParseKind(f)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Spec is one fully resolved attack scenario: which nodes misbehave
// and, for hijack/intercept, which destination each one targets.
type Spec struct {
	Kind      Kind
	Attackers []routing.NodeID // sorted
	// Victims maps each attacker to its victim destination (the foreign
	// destination it originates, or whose traffic it drops). Empty for
	// Leak and None.
	Victims map[routing.NodeID]routing.NodeID
}

// Pick deterministically selects count attackers (and, for
// hijack/intercept, one victim destination per attacker) on g. The
// same (g, kind, count, seed) always yields the same Spec: candidates
// are iterated in sorted node order and drawn with a local seeded RNG.
// Leak attackers are restricted to nodes with at least two
// provider-or-peer neighbors — a node needs one to learn a
// non-exportable route from and another to leak it to. Victims are
// never the attacker itself or one of its direct neighbors (a hijack
// of an adjacent destination attracts nothing the true route would
// not). Fewer eligible nodes than count selects all of them.
func Pick(g *topology.Graph, kind Kind, count int, seed int64) Spec {
	spec := Spec{Kind: kind}
	if kind == None || count <= 0 {
		return spec
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := g.Nodes()
	var eligible []routing.NodeID
	for _, n := range nodes {
		if kind == Leak && upstreams(g, n) < 2 {
			continue
		}
		eligible = append(eligible, n)
	}
	rng.Shuffle(len(eligible), func(i, j int) {
		eligible[i], eligible[j] = eligible[j], eligible[i]
	})
	if count > len(eligible) {
		count = len(eligible)
	}
	spec.Attackers = append([]routing.NodeID(nil), eligible[:count]...)
	slices.Sort(spec.Attackers)
	if kind == Hijack || kind == Intercept {
		spec.Victims = make(map[routing.NodeID]routing.NodeID, count)
		for _, a := range spec.Attackers {
			spec.Victims[a] = pickVictim(g, a, nodes, rng)
		}
	}
	return spec
}

// upstreams counts n's provider and peer neighbors.
func upstreams(g *topology.Graph, n routing.NodeID) int {
	c := 0
	for _, nb := range g.Neighbors(n) {
		if nb.Rel == topology.RelProvider || nb.Rel == topology.RelPeer {
			c++
		}
	}
	return c
}

// pickVictim draws a victim destination for attacker a: not a itself
// and not one of a's direct neighbors, when the graph allows it.
func pickVictim(g *topology.Graph, a routing.NodeID, nodes []routing.NodeID, rng *rand.Rand) routing.NodeID {
	adjacent := make(map[routing.NodeID]bool)
	for _, nb := range g.Neighbors(a) {
		adjacent[nb.ID] = true
	}
	var cands []routing.NodeID
	for _, n := range nodes {
		if n != a && !adjacent[n] {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		for _, n := range nodes {
			if n != a {
				cands = append(cands, n)
			}
		}
	}
	if len(cands) == 0 {
		return routing.None
	}
	return cands[rng.Intn(len(cands))]
}

// Model is the live per-simulation attack state: the resolved Spec
// plus bookkeeping the protocol hooks and the detector share (which
// destinations were actually injected, how many announcement units).
// One Model serves every node of one simulation run; the simulator is
// single-threaded, so no locking. Models must not be shared across
// concurrently running trials.
type Model struct {
	spec      Spec
	attackers map[routing.NodeID]bool
	injected  map[routing.NodeID]bool // dests whose bad state was actually announced
	units     int64
}

// NewModel builds the live state for spec. A nil-safe zero scenario is
// simply a nil *Model.
func NewModel(spec Spec) *Model {
	m := &Model{
		spec:      spec,
		attackers: make(map[routing.NodeID]bool, len(spec.Attackers)),
		injected:  make(map[routing.NodeID]bool),
	}
	for _, a := range spec.Attackers {
		m.attackers[a] = true
	}
	return m
}

// Kind returns the attack kind (None for a nil model).
func (m *Model) Kind() Kind {
	if m == nil {
		return None
	}
	return m.spec.Kind
}

// IsAttacker reports whether n misbehaves under this model.
func (m *Model) IsAttacker(n routing.NodeID) bool {
	return m != nil && m.attackers[n]
}

// Attackers returns the sorted attacker set.
func (m *Model) Attackers() []routing.NodeID {
	if m == nil {
		return nil
	}
	return m.spec.Attackers
}

// Leaks reports whether node n violates the export rule by leaking
// (re-exporting provider/peer routes to providers and peers).
func (m *Model) Leaks(n routing.NodeID) bool {
	return m != nil && m.spec.Kind == Leak && m.attackers[n]
}

// HijackVictim returns the destination attacker n falsely originates.
func (m *Model) HijackVictim(n routing.NodeID) (routing.NodeID, bool) {
	if m == nil || m.spec.Kind != Hijack || !m.attackers[n] {
		return routing.None, false
	}
	v, ok := m.spec.Victims[n]
	return v, ok && v != routing.None
}

// Drops reports whether node n drops data traffic toward dest: hijack
// attackers sink the traffic their fake origination attracts, and
// intercept attackers forward announcements but drop the packets.
func (m *Model) Drops(n, dest routing.NodeID) bool {
	if m == nil || !m.attackers[n] {
		return false
	}
	if m.spec.Kind != Hijack && m.spec.Kind != Intercept {
		return false
	}
	return m.spec.Victims[n] == dest
}

// VictimOf returns the victim destination of attacker n (None if the
// kind has no victims or n is not an attacker).
func (m *Model) VictimOf(n routing.NodeID) routing.NodeID {
	if m == nil || !m.attackers[n] {
		return routing.None
	}
	return m.spec.Victims[n]
}

// NoteInjected records that an attacker actually put bad state for
// dest on the wire, in units announcement units. The detector uses the
// injected-destination set to bound its structural-denial scan.
func (m *Model) NoteInjected(dest routing.NodeID, units int) {
	if m == nil {
		return
	}
	m.injected[dest] = true
	m.units += int64(units)
}

// InjectedDests returns the sorted destinations for which bad state
// was actually announced.
func (m *Model) InjectedDests() []routing.NodeID {
	if m == nil {
		return nil
	}
	out := make([]routing.NodeID, 0, len(m.injected))
	for d := range m.injected {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

// InjectedUnits returns the total announcement units injected.
func (m *Model) InjectedUnits() int64 {
	if m == nil {
		return 0
	}
	return m.units
}

// LeakClass reports whether a route of class cl is one a leak attacker
// re-exports where the policy would not: provider- and peer-learned
// routes (everything else is already exportable everywhere).
func LeakClass(cl policy.RouteClass) bool {
	return cl == policy.ClassPeer || cl == policy.ClassProvider
}

// LeakTarget reports whether rel (the neighbor as the attacker sees
// it) is a neighbor the leak is directed at: providers and peers, to
// whom such routes must never be exported.
func LeakTarget(rel topology.Relationship) bool {
	return rel == topology.RelProvider || rel == topology.RelPeer
}
