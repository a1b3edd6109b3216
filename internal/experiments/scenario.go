package experiments

import (
	"time"

	"centaur/internal/forward"
	"centaur/internal/liveness"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// Scenario is the workload the flip figures, the protocol ladder, the
// reliability and adversarial grids and the solver scaling sweep share,
// as plain data: the paper's §5 runs every protocol on one topology, one
// delay assignment and one flip sequence. Each runner documents the
// fields it reads and ignores the rest; the grids take their own axes
// (ReliabilityConfig, AdversarialConfig) alongside.
type Scenario struct {
	// Nodes and LinksPerNode (the BRITE attachment parameter m) generate
	// the topology; Figure 8 sweeps Sizes of BRITE graphs instead, and
	// Scaling sweeps Sizes of CAIDA-like ones.
	Nodes        int
	LinksPerNode int
	Sizes        []int
	// Seed drives topology generation, link sampling and the per-trial
	// delay assignment.
	Seed int64
	// Flips caps the flipped links per measurement (0 = all; Scaling's
	// flips per size, 0 = 30).
	Flips int
	// MRAI is the batching timer of Figure 6's headline BGP series and
	// the ladder's bgp+mrai row. Session-level BGP (the paper's DistComm
	// comparator) rate-limits advertisements; the eBGP default is 30 s.
	// Centaur needs no such timer — root cause notification suppresses
	// the path exploration MRAI exists to dampen — which is precisely the
	// asymmetry Figure 6 demonstrates.
	MRAI time.Duration
	// TrialsPerNetwork and Workers are the parallelism knobs; see
	// FlipConfig. A figure's series all fan out on one shared pool
	// (protocol × trial chunk), so even TrialsPerNetwork 0 runs the
	// protocols concurrently.
	TrialsPerNetwork int
	Workers          int
	// Verify invariant-checks every quiesced flip state against
	// incremental-solver ground truth (one cold solve per topology,
	// microseconds per flip after; see FlipConfig.Verify). For Scaling it
	// checks the incremental tables against a fresh cold solve.
	Verify bool
	// Telemetry and Trace are the observability hooks, shared by every
	// series; see FlipConfig.
	Telemetry *telemetry.Registry
	Trace     *telemetry.TraceCollector
	// Flows enables the user-impact variant: that many seeded,
	// policy-reachable src→dst flows are re-walked through the live RIBs,
	// and results carry the integrated blackhole/loop impact. FlowRate
	// converts outcome-seconds to packet equivalents (0 = forward's
	// default, 1000/s).
	Flows    int
	FlowSeed int64
	FlowRate float64
	// DetectInterval > 0 runs Figures 6 and 7 under BFD-style liveness
	// detection at that transmit interval instead of oracle link-down
	// notification, so reconvergence times include failure-detection
	// latency. DetectMult is the detection multiplier of every liveness
	// session, the reliability sweep's included (0 = liveness's default,
	// 3).
	DetectInterval time.Duration
	DetectMult     int
}

// brite generates the scenario's BRITE topology.
func (s Scenario) brite() (*topology.Graph, error) {
	return topogen.BRITE(s.Nodes, s.LinksPerNode, s.Seed)
}

// series is one protocol of a flip figure: its builder, its telemetry
// and trace name ("fig6.centaur") and its error label.
type series struct {
	build       sim.Builder
	name, label string
}

// flipSeries is the one place a Scenario becomes flip runs: the trials
// of each series on g under s's flip, seed, parallelism and
// observability fields, and each series' sample slots in series order.
// verify, flows and live are what the figure checks, tracks and detects
// with; Figure 8 and the ladder pass none.
func (s Scenario) flipSeries(g *topology.Graph, verify *solver.Solution, flows []forward.Flow, live liveness.Config, ss ...series) ([]trial, [][]FlipSample) {
	var trials []trial
	out := make([][]FlipSample, len(ss))
	for i, x := range ss {
		fc := FlipConfig{Topology: g, Build: x.build, Flips: s.Flips, Seed: s.Seed,
			TrialsPerNetwork: s.TrialsPerNetwork, Verify: verify, Series: x.name,
			Telemetry: s.Telemetry, Trace: s.Trace, Flows: flows, FlowRate: s.FlowRate, Liveness: live}
		out[i] = make([]FlipSample, len(flipEdges(fc)))
		trials = append(trials, flipTrials(fc, x.label, out[i])...)
	}
	return trials, out
}

// dataPlaneSeries is flipSeries for Figures 6 and 7: on s's BRITE
// topology, verified when s.Verify asks, tracking s's flows and detecting
// failures at s.DetectInterval. It also returns the flows it sampled.
func (s Scenario) dataPlaneSeries(ss ...series) ([]trial, [][]FlipSample, []forward.Flow, error) {
	g, err := s.brite()
	if err != nil {
		return nil, nil, nil, err
	}
	verify, err := verifySolution(g, s.Verify)
	if err != nil {
		return nil, nil, nil, err
	}
	flows, err := sampleReachableFlows(g, s.Flows, s.FlowSeed, verify)
	if err != nil {
		return nil, nil, nil, err
	}
	trials, out := s.flipSeries(g, verify, flows, liveness.Config{TxInterval: s.DetectInterval, DetectMult: s.DetectMult}, ss...)
	return trials, out, flows, nil
}
