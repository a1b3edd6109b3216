package experiments

import (
	"fmt"
	"strings"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/ospf"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// LadderRow is one protocol's measurement on the ladder workload.
type LadderRow struct {
	Protocol string
	// ColdUnits is the update units of a cold start to quiescence.
	ColdUnits int64
	// Samples are the flip measurements, in schedule order.
	Samples []FlipSample
}

// LadderResult is the protocol ladder: every protocol's cold-start cost
// and flip-phase means on one workload.
type LadderResult struct {
	Topology topology.Stats
	Flips    int
	Seed     int64
	Rows     []LadderRow
}

// Ladder runs Figure 6's workload — one BRITE topology, delay
// assignment and flip schedule — under the full protocol ladder:
// Centaur, BGP, BGP with cfg.MRAI, BGP-RCN and OSPF, each with its
// default policy. It reads cfg's topology, flip, seed, MRAI,
// parallelism, checkpoint and observability fields; series names are
// "compare.<protocol>". Every protocol contributes one cold-start trial
// (unrecorded in telemetry and trace) and its flip trials to one flat
// trial list, so results, counters and trace are identical for every
// worker count.
func Ladder(cfg Figure6Config) (*LadderResult, error) {
	g, err := topogen.BRITE(cfg.Nodes, cfg.LinksPerNode, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ladder := []struct {
		name  string
		build sim.Builder
	}{
		{"centaur", centaur.New(centaur.Config{})},
		{"bgp", bgp.New(bgp.Config{})},
		{"bgp+mrai", bgp.New(bgp.Config{MRAI: cfg.MRAI})},
		{"bgp-rcn", bgp.New(bgp.Config{RCN: true})},
		{"ospf", ospf.New()},
	}
	res := &LadderResult{Topology: g.Stats(), Flips: cfg.Flips, Seed: cfg.Seed, Rows: make([]LadderRow, len(ladder))}
	cold := make([]sim.Stats, len(ladder))
	var trials []trial
	for i, p := range ladder {
		fc := FlipConfig{
			Topology: g, Build: p.build, Flips: cfg.Flips, Seed: cfg.Seed,
			TrialsPerNetwork: cfg.TrialsPerNetwork, NoCheckpoint: cfg.NoCheckpoint,
			Series: "compare." + p.name, Telemetry: cfg.Telemetry, Trace: cfg.Trace,
		}
		res.Rows[i] = LadderRow{Protocol: p.name, Samples: make([]FlipSample, len(flipEdges(fc)))}
		label := "experiments: ladder " + p.name
		trials = append(trials, trial{label: label, topo: g, build: p.build, delaySeed: cfg.Seed, body: coldStats(&cold[i])})
		trials = append(trials, flipTrials(fc, label, res.Rows[i].Samples)...)
	}
	if err := runTrials(trials, cfg.Workers); err != nil {
		return nil, err
	}
	for i := range res.Rows {
		res.Rows[i].ColdUnits = cold[i].Units
	}
	return res, nil
}

// String renders the ladder table: per protocol the cold-start units
// and the per-flip-phase means of update units, wire messages, wire
// kilobytes and convergence time. A protocol without samples prints no
// row.
func (r *LadderResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "protocol ladder on %v, %d flips, seed %d\n\n", r.Topology, r.Flips, r.Seed)
	fmt.Fprintf(&b, "%-10s %12s %12s %12s %12s %14s %14s\n",
		"protocol", "cold units", "units/phase", "msgs/phase", "kB/phase", "mean down", "mean up")
	for _, row := range r.Rows {
		if len(row.Samples) == 0 {
			continue
		}
		var units, msgs, bytes int64
		var down, up time.Duration
		for _, s := range row.Samples {
			units += s.DownUnits + s.UpUnits
			msgs += s.DownMsgs + s.UpMsgs
			bytes += s.DownBytes + s.UpBytes
			down += s.DownTime
			up += s.UpTime
		}
		phases := float64(2 * len(row.Samples))
		fmt.Fprintf(&b, "%-10s %12d %12.1f %12.1f %12.2f %14v %14v\n",
			row.Protocol, row.ColdUnits, float64(units)/phases, float64(msgs)/phases,
			float64(bytes)/phases/1024,
			(down / time.Duration(len(row.Samples))).Round(time.Microsecond),
			(up / time.Duration(len(row.Samples))).Round(time.Microsecond))
	}
	return b.String()
}
