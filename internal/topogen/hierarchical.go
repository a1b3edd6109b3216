package topogen

import (
	"fmt"
	"math/rand"
	"sort"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// HierConfig parameterizes the hierarchical measured-like generator.
type HierConfig struct {
	// N is the total node count; the fully peer-meshed Tier-1 core has
	// tier1Size(N) nodes.
	N int
	// TransitFrac is the fraction of nodes (beyond Tier-1) that provide
	// transit; the rest are stubs.
	TransitFrac float64
	// PeerFrac is the target fraction of all links that are peer links
	// (Table 3: CAIDA ≈ 7.6%, HeTop ≈ 35%).
	PeerFrac float64
	// SiblingFrac is the target fraction of all links that are sibling
	// links (Table 3: ≈ 0.4%).
	SiblingFrac float64
	// Seed seeds the generator.
	Seed int64
}

// providerDist is the probability distribution of the number of
// providers a non-Tier-1 node buys from: providerDist[i] is the
// probability of having i+1 providers. Mean ≈ 2.05 providers per
// non-core AS, matching measured snapshots (CAIDA Sep'07: 48457
// provider links / 26022 ASes ≈ 1.9 per AS including the core).
var providerDist = []float64{0.30, 0.42, 0.21, 0.07}

// validate fills defaults and sanity-checks the configuration.
func (c *HierConfig) validate() error {
	if c.N < 8 {
		return fmt.Errorf("topogen: hierarchical topology needs N >= 8, got %d", c.N)
	}
	if c.TransitFrac <= 0 || c.TransitFrac >= 1 {
		c.TransitFrac = 0.15
	}
	if c.PeerFrac < 0 || c.PeerFrac >= 0.9 {
		return fmt.Errorf("topogen: PeerFrac %.2f out of range [0, 0.9)", c.PeerFrac)
	}
	if c.SiblingFrac < 0 || c.SiblingFrac >= 0.5 {
		return fmt.Errorf("topogen: SiblingFrac %.2f out of range [0, 0.5)", c.SiblingFrac)
	}
	return nil
}

// Hierarchical generates a power-law, tiered AS topology in the shape of
// measured AS-relationship snapshots: a peer-meshed Tier-1 core, transit
// ASes multi-homed to preferentially chosen earlier providers (which
// yields heavy-tailed customer degrees and an acyclic provider
// hierarchy), stub ASes below them, plus peer and sibling links mixed in
// to hit the configured Table 3-style fractions.
func Hierarchical(cfg HierConfig) (*topology.Graph, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tier1 := tier1Size(cfg.N)
	g := topology.NewGraph(cfg.N)
	for i := 1; i <= cfg.N; i++ {
		if err := g.AddNode(routing.NodeID(i)); err != nil {
			return nil, err
		}
	}

	// Tier-1 core: full peer mesh over nodes 1..tier1.
	for i := 1; i <= tier1; i++ {
		for j := i + 1; j <= tier1; j++ {
			if err := g.AddEdge(routing.NodeID(i), routing.NodeID(j), topology.RelPeer); err != nil {
				return nil, err
			}
		}
	}

	nTransit := int(float64(cfg.N-tier1) * cfg.TransitFrac)
	transitMax := tier1 + nTransit // nodes 1..transitMax may sell transit

	// endpoints is the preferential-attachment pool: transit-capable
	// nodes appear once per customer they already serve (plus once flat),
	// so provider choice follows current customer degree.
	endpoints := make([]int, 0, cfg.N*2)
	for i := 1; i <= tier1; i++ {
		endpoints = append(endpoints, i)
	}
	providerLinks := 0
	for v := tier1 + 1; v <= cfg.N; v++ {
		nProv := sampleCount(rng, providerDist)
		chosen := make(map[int]struct{}, nProv)
		for attempts := 0; len(chosen) < nProv && attempts < 200; attempts++ {
			u := endpoints[rng.Intn(len(endpoints))]
			if u >= v || u > transitMax {
				continue
			}
			chosen[u] = struct{}{}
		}
		if len(chosen) == 0 {
			// Guarantee connectivity: fall back to a random Tier-1 provider.
			chosen[1+rng.Intn(tier1)] = struct{}{}
		}
		// Sorted, not map order: the append order below shapes the
		// attachment pool and hence every later draw, so iterating the
		// map directly would make same-seed graphs differ run to run.
		provs := make([]int, 0, len(chosen))
		for u := range chosen {
			provs = append(provs, u)
		}
		sort.Ints(provs)
		for _, u := range provs {
			// v is the customer of u.
			if err := g.AddEdge(routing.NodeID(v), routing.NodeID(u), topology.RelProvider); err != nil {
				return nil, err
			}
			providerLinks++
			if v <= transitMax {
				endpoints = append(endpoints, u, v)
			} else {
				endpoints = append(endpoints, u)
			}
		}
	}

	// Peer and sibling links on top, to reach the configured fractions
	// of the final link count: with p the peer fraction and s the
	// sibling fraction, total ≈ provider/(1-p-s).
	base := float64(providerLinks) / (1 - cfg.PeerFrac - cfg.SiblingFrac)
	wantPeer := int(base * cfg.PeerFrac)
	wantSibling := int(base * cfg.SiblingFrac)

	// Sibling links: realistic sibling ASes are one organization homed
	// behind shared upstreams. We model each sibling pair by rewiring a
	// stub s2 to sit single-homed behind its sibling s1 (s2's own
	// provider links are removed). Arbitrary sibling placement combined
	// with mutual-transit export is not safe: it can contract the
	// provider hierarchy into a cycle (policy oscillation) or create
	// down-sibling-up valleys; see DESIGN.md.
	siblinged := make(map[int]bool)
	nStubs := cfg.N - transitMax
	if maxPairs := nStubs / 4; wantSibling > maxPairs {
		wantSibling = maxPairs
	}
	for added, attempts := 0, 0; added < wantSibling && attempts < wantSibling*50; attempts++ {
		s1 := transitMax + 1 + rng.Intn(nStubs)
		s2 := transitMax + 1 + rng.Intn(nStubs)
		if s1 == s2 || siblinged[s1] || siblinged[s2] {
			continue
		}
		// Detach s2 from its providers and home it behind s1.
		for _, nb := range append([]topology.Neighbor(nil), g.Neighbors(routing.NodeID(s2))...) {
			g.RemoveEdge(routing.NodeID(s2), nb.ID)
			providerLinks--
		}
		if err := g.AddEdge(routing.NodeID(s1), routing.NodeID(s2), topology.RelSibling); err != nil {
			return nil, err
		}
		siblinged[s1], siblinged[s2] = true, true
		added++
	}

	// Peer links, preferentially between transit ASes — measured
	// peering concentrates among mid-size ISPs, and transit-level
	// peering is what creates equal-class path diversity. Peering is
	// safe anywhere under Gao-Rexford preferences, but peers of a
	// sibling endpoint could be handed a sibling-transit route that
	// climbs uphill afterwards, so sibling endpoints are excluded.
	for added, attempts := 0, 0; added < wantPeer && attempts < wantPeer*50; attempts++ {
		a := 1 + rng.Intn(cfg.N)
		if attempts%5 != 0 { // 80% of draws come from the transit stratum
			a = 1 + rng.Intn(transitMax)
		}
		b := 1 + rng.Intn(cfg.N)
		if attempts%5 != 4 {
			b = 1 + rng.Intn(transitMax)
		}
		if a == b || siblinged[a] || siblinged[b] {
			continue
		}
		if g.HasEdge(routing.NodeID(a), routing.NodeID(b)) {
			continue
		}
		if err := g.AddEdge(routing.NodeID(a), routing.NodeID(b), topology.RelPeer); err != nil {
			continue
		}
		added++
	}
	return g, nil
}

// sampleCount draws from the categorical distribution dist, returning
// i+1 with probability dist[i].
func sampleCount(rng *rand.Rand, dist []float64) int {
	r := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if r < acc {
			return i + 1
		}
	}
	return len(dist)
}

// CAIDALike generates an n-node topology shaped like the paper's CAIDA
// Sep'07 snapshot (Table 3): links ≈ 2 per node, ≈ 7.6% peering,
// ≈ 92% provider, ≈ 0.4% sibling.
func CAIDALike(n int, seed int64) (*topology.Graph, error) {
	return Hierarchical(HierConfig{
		N:           n,
		TransitFrac: 0.15,
		PeerFrac:    0.076,
		SiblingFrac: 0.004,
		Seed:        seed,
	})
}

// HeTopLike generates an n-node topology shaped like the paper's HeTop
// May'05 snapshot (Table 3): links ≈ 3 per node with ≈ 35% peering
// (HeTop's methodology "finds more peering links"), ≈ 64% provider,
// ≈ 0.4% sibling.
func HeTopLike(n int, seed int64) (*topology.Graph, error) {
	return Hierarchical(HierConfig{
		N:           n,
		TransitFrac: 0.18,
		PeerFrac:    0.35,
		SiblingFrac: 0.004,
		Seed:        seed,
	})
}
