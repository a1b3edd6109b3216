package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
)

// AggregationConfig parameterizes the §6.4 de-aggregation extension.
type AggregationConfig struct {
	// Nodes is the base BRITE topology size.
	Nodes int
	// Hosts is how many stub ASes de-aggregate their prefix.
	Hosts int
	// Parts is the sweep of de-aggregation levels (sub-prefixes per
	// host); level 0 is the aggregated baseline.
	Parts []int
	Seed  int64
}

// DefaultAggregationConfig sweeps de-aggregation levels 0–8.
func DefaultAggregationConfig() AggregationConfig {
	return AggregationConfig{Nodes: 150, Hosts: 10, Parts: []int{0, 2, 4, 8}, Seed: 1}
}

// AggregationPoint is one sweep point: the cold-start announcement cost
// at one de-aggregation level.
type AggregationPoint struct {
	Parts        int
	CentaurUnits int64
	BGPUnits     int64
	CentaurBytes int64
	BGPBytes     int64
}

// AggregationResult is the §6.4 sweep. The paper argues Centaur supports
// any aggregation level "in the same way as BGP"; the measurement adds
// the quantitative corollary of §6.2's closing insight — Centaur carries
// the same routing information in a compressed format, so every
// de-aggregation level costs measurably fewer wire bytes (each new
// sub-prefix is one link plus marks, not one full path vector per hop).
type AggregationResult struct {
	Points []AggregationPoint
}

// AggregationExtension sweeps de-aggregation levels and measures each
// protocol's cold-start announcement cost on the grown topology.
func AggregationExtension(cfg AggregationConfig) (*AggregationResult, error) {
	base, err := topogen.BRITE(cfg.Nodes, 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// De-aggregating hosts are stub-ish nodes: prefer low-degree ones.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var stubs []routing.NodeID
	for _, id := range base.Nodes() {
		if base.Degree(id) <= 2 {
			stubs = append(stubs, id)
		}
	}
	if len(stubs) < cfg.Hosts {
		return nil, fmt.Errorf("experiments: only %d stub hosts available, need %d", len(stubs), cfg.Hosts)
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	hosts := stubs[:cfg.Hosts]

	// One cold start per (level, protocol), run serially in sweep order.
	stats := make([][2]sim.Stats, len(cfg.Parts))
	var trials []trial
	for i, parts := range cfg.Parts {
		g := base.Clone()
		if parts > 0 {
			if _, err := topogen.AttachLeaves(g, hosts, parts); err != nil {
				return nil, err
			}
		}
		label := fmt.Sprintf("experiments: aggregation (parts=%d)", parts)
		for k, build := range []sim.Builder{hashedCentaur(centaur.Config{}), bgp.New(bgp.Config{Policy: hashedPolicy})} {
			trials = append(trials, trial{label: label, topo: g, build: build, delaySeed: cfg.Seed, body: coldStats(&stats[i][k])})
		}
	}
	if err := runTrials(trials, 1); err != nil {
		return nil, err
	}
	res := &AggregationResult{Points: make([]AggregationPoint, len(cfg.Parts))}
	for i, parts := range cfg.Parts {
		cent, bgpr := stats[i][0], stats[i][1]
		res.Points[i] = AggregationPoint{Parts: parts,
			CentaurUnits: cent.Units, BGPUnits: bgpr.Units, CentaurBytes: cent.Bytes, BGPBytes: bgpr.Bytes}
	}
	return res, nil
}

// String renders the sweep with per-level byte ratios.
func (r *AggregationResult) String() string {
	var b strings.Builder
	b.WriteString("Extension (§6.4): de-aggregation cost sweep (cold start).\n")
	fmt.Fprintf(&b, "%8s %12s %12s %14s %14s %12s\n",
		"parts", "cent-units", "bgp-units", "cent-bytes", "bgp-bytes", "byte-ratio")
	for _, p := range r.Points {
		ratio := 0.0
		if p.CentaurBytes > 0 {
			ratio = float64(p.BGPBytes) / float64(p.CentaurBytes)
		}
		fmt.Fprintf(&b, "%8d %12d %12d %14d %14d %12.2f\n",
			p.Parts, p.CentaurUnits, p.BGPUnits, p.CentaurBytes, p.BGPBytes, ratio)
	}
	return b.String()
}
