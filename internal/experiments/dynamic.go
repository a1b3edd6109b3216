package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/forward"
	"centaur/internal/invariant"
	"centaur/internal/liveness"
	"centaur/internal/metrics"
	"centaur/internal/ospf"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/topology"
	"centaur/internal/trace"
)

// FlipSample is one link-flip measurement: the link was failed, the
// network reconverged, the link was restored, and the network
// reconverged again, exactly the §5.3 workload.
type FlipSample struct {
	Link topology.Edge
	// DownTime/UpTime are the reconvergence durations ("the duration
	// time required to re-stabilize") after failure and after restore.
	DownTime, UpTime time.Duration
	// DownUnits/UpUnits are the elementary update units sent during each
	// phase: per-destination updates for BGP, per-link announcements for
	// Centaur, per-LSA hops for OSPF.
	DownUnits, UpUnits int64
	// DownMsgs/UpMsgs are the point-to-point messages sent during each
	// phase — what a wire trace would count; Centaur batches a whole
	// delta per message, BGP sends one destination per message.
	DownMsgs, UpMsgs int64
	// DownBytes/UpBytes are the encoded wire bytes sent during each
	// phase (internal/wire), the unit-free cost metric.
	DownBytes, UpBytes int64
	// DownImpact/UpImpact are the integrated data-plane outcomes of each
	// phase — blackhole/loop flow-seconds and packet equivalents from
	// the fault (or restore) instant to quiescence. Zero unless
	// FlipConfig.Flows is set.
	DownImpact, UpImpact forward.Impact
}

// FlipConfig parameterizes a link-flip experiment run.
type FlipConfig struct {
	// Topology is the annotated graph to simulate.
	Topology *topology.Graph
	// Build constructs the protocol under test.
	Build sim.Builder
	// Flips is the number of links to flip (0 = all links). The paper
	// sequentially flips every link of its 500-node topology.
	Flips int
	// Seed drives link sampling and the per-link delay assignment.
	Seed int64
	// TrialsPerNetwork splits the flip schedule into independent chunks
	// of this many contiguous trials, each simulated on a fresh network
	// whose delay seed is Seed + the chunk's first trial index — the
	// deterministic per-trial seeding rule that makes chunks independent
	// of each other and of the worker count. 0 keeps the paper's (and
	// this repo's historical) semantics: every flip runs sequentially on
	// one shared network, which also costs only one cold start. With
	// several chunks, no trace and no liveness detection, the series
	// cold-starts once, checkpoints the converged network, and each chunk
	// forks the checkpoint under its own delay seed (sim.Checkpoint.Fork):
	// the same per-flip results as a cold start per chunk (DESIGN.md
	// invariant 8). A traced run cold-starts every chunk, because each
	// chunk's trace must contain its own cold-start events.
	TrialsPerNetwork int
	// workers bounds how many chunks RunFlips runs concurrently; 0
	// means GOMAXPROCS, 1 forces serial execution. The reported samples
	// are identical for every worker count: chunking is fixed by
	// TrialsPerNetwork and each chunk writes its own result slots. Only
	// tests set it.
	workers int
	// Verify, when non-nil, makes every flip trial invariant-checked:
	// after each reconvergence (fail and restore alike) the quiesced
	// RIBs are checked against ground truth that the incremental solver
	// maintains alongside the simulation. Verify must be the converged
	// solve of Topology under the protocol's policy; it is never
	// mutated — each trial forks it onto a private graph clone
	// (Solution.CloneOn) and keeps the fork current with
	// Solution.Resolve across its fail/restore schedule, so the oracle
	// costs microseconds per quiescence instead of a cold re-solve. Any
	// violation fails the run. Checking reads RIBs only, after the
	// phase's accounting is captured, so measured samples are unchanged.
	Verify *solver.Solution
	// Series names this run in telemetry metrics and trace chunk labels
	// (e.g. "fig6.centaur"); empty means "flips".
	Series string
	// Telemetry, when enabled, receives per-series message/unit/byte
	// counters broken down by message kind and per-phase convergence
	// distributions. Counter folding is atomic, so results are identical
	// for every worker count.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, collects a structured JSONL event trace. One
	// chunk per simulation is created at trial-construction time (a serial
	// step), so the concatenated trace is byte-identical for every
	// worker count.
	Trace *trace.Collector
	// Flows enables per-phase data-plane accounting: each flow is
	// re-walked through the live RIBs on every control-plane change, and
	// every flip sample carries the integrated user impact of its down
	// and up phase. Empty leaves the run bit-for-bit what it was before
	// the data plane existed. FlowRate converts outcome-seconds to
	// packet equivalents (0 = forward's default, 1000/s).
	Flows    []forward.Flow
	FlowRate float64
	// Liveness, when Liveness.TxInterval > 0, replaces oracle link-down
	// notification with BFD-style sessions at that transmit interval:
	// every phase's convergence time then includes the detection latency,
	// and its message counts include the session control frames. The
	// wrapper is not snapshottable, so a liveness run never forks
	// checkpoints: each chunk cold-starts.
	Liveness liveness.Config
}

// verifySolution cold-solves g under the shared hashed-tie-break policy
// when verification is requested; a nil result disables checking.
func verifySolution(g *topology.Graph, verify bool) (*solver.Solution, error) {
	if !verify {
		return nil, nil
	}
	sol, err := hashedSolve(g)
	if err != nil {
		return nil, fmt.Errorf("experiments: verification solve: %w", err)
	}
	return sol, nil
}

// sampleReachableFlows draws up to n seeded flows whose pairs the
// policy solver can route, so steady-state data-plane accounting
// measures convergence transients rather than permanent policy holes.
// sol, when non-nil, is reused for the filter (the verification
// solution fits — same policy); otherwise one solve is run here.
func sampleReachableFlows(g *topology.Graph, n int, seed int64, sol *solver.Solution) ([]forward.Flow, error) {
	if n <= 0 {
		return nil, nil
	}
	if sol == nil {
		var err error
		if sol, err = hashedSolve(g); err != nil {
			return nil, err
		}
	}
	var out []forward.Flow
	for _, f := range forward.SampleFlows(g, n, seed) {
		if _, ok := sol.Path(f.Src, f.Dst); ok {
			out = append(out, f)
		}
	}
	return out, nil
}

// flipEdges returns the flip schedule for cfg: all edges, or a
// Seed-shuffled sample of Flips of them. The slice is always a private
// copy: topology.Graph.Edges does return a fresh slice today, but the
// shuffle below must never be able to reorder state shared with other
// series of the same FlipConfig.Topology, so we don't lean on that
// (regression-tested by TestFlipEdgesDoesNotPerturbTopology).
func flipEdges(cfg FlipConfig) []topology.Edge {
	edges := slices.Clone(cfg.Topology.Edges())
	if cfg.Flips > 0 && cfg.Flips < len(edges) {
		rng := rand.New(rand.NewSource(cfg.Seed))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		edges = edges[:cfg.Flips]
	}
	return edges
}

// flipTrials splits cfg's flip schedule into warm trials writing into
// out (which must have one slot per scheduled flip). Trace chunks are
// created here, in serial construction order, which is what pins the
// chunk order — and hence the whole trace — across worker counts.
func flipTrials(cfg FlipConfig, label string, out []FlipSample) []trial {
	edges := flipEdges(cfg)
	chunk := cfg.TrialsPerNetwork
	if chunk <= 0 {
		chunk = len(edges) // single shared network, historical semantics
	}
	series := cfg.Series
	if series == "" {
		series = "flips"
	}
	build := cfg.Build
	livenessOn := cfg.Liveness.TxInterval > 0
	if livenessOn {
		build = liveness.Wrap(build, cfg.Liveness)
	}
	base := trial{label: label, topo: cfg.Topology, build: build, delaySeed: cfg.Seed,
		series: series, tele: cfg.Telemetry, warm: true, flows: cfg.Flows, flowRate: cfg.FlowRate}
	// Checkpointing pays off only when several chunks would each repeat
	// the cold start; tracing needs every chunk's own cold-start events
	// in its trace, so it keeps the cold path (see
	// FlipConfig.TrialsPerNetwork). The liveness wrapper is not
	// snapshottable, so those runs skip the fork source rather than
	// cold-start it just to fail the snapshot.
	if cfg.Trace == nil && len(edges) > chunk && !livenessOn {
		base.fork = &forkSource{template: base}
	}
	var trials []trial
	for start := 0; start < len(edges); start += chunk {
		end := min(start+chunk, len(edges))
		t := base
		t.delaySeed = cfg.Seed + int64(start)
		t.chunk = cfg.Trace.Chunk(series, t.delaySeed)
		t.body = flipBody(edges[start:end], out[start:end], cfg.Verify)
		trials = append(trials, t)
	}
	return trials
}

// flipBody measures the flip schedule edges on a converged network into
// out: fail, reconverge, restore, reconverge. With verify non-nil every
// quiesced state is checked against a private fork of the series' base
// solution on a private graph clone, advanced edge by edge with the
// incremental solver in lockstep with the simulated flips. The tracker,
// attached after the warm-up, integrates each phase from its flip
// instant to its quiescence.
func flipBody(edges []topology.Edge, out []FlipSample, verify *solver.Solution) func(*trial, *sim.Network, *forward.Tracker) error {
	return func(t *trial, net *sim.Network, tracker *forward.Tracker) error {
		var vg *topology.Graph
		var vsol *solver.Solution
		if verify != nil {
			vg = t.topo.Clone()
			var err error
			if vsol, err = verify.CloneOn(vg); err != nil {
				return err
			}
		}
		t0 := time.Now()
		defer func() { stageClock.flips.Add(int64(time.Since(t0))) }()
		for i, e := range edges {
			s := FlipSample{Link: e}
			for _, ph := range []struct {
				down               bool
				units, msgs, bytes *int64
				conv               *time.Duration
				impact             *forward.Impact
			}{
				{true, &s.DownUnits, &s.DownMsgs, &s.DownBytes, &s.DownTime, &s.DownImpact},
				{false, &s.UpUnits, &s.UpMsgs, &s.UpBytes, &s.UpTime, &s.UpImpact},
			} {
				verb, flip, phase, was := "restoring", net.RestoreLink, "up", "down"
				if ph.down {
					verb, flip, phase, was = "failing", net.FailLink, "down", "up"
				}
				net.ResetStats()
				start := net.Now()
				if !flip(e.A, e.B) {
					return fmt.Errorf("experiments: %s %v: link not %s", verb, e, was)
				}
				o := t.converge(net)
				if o.err != nil {
					return fmt.Errorf("experiments: reconverging after %s %v: %w", verb, e, o.err)
				}
				st := o.st
				*ph.units, *ph.msgs, *ph.bytes = st.Units, st.Messages, st.Bytes
				if st.Messages > 0 {
					*ph.conv = st.LastSend - start
				}
				if tracker != nil {
					*ph.impact = tracker.Window(net.Now())
				}
				t.recordPhase(st, phase, *ph.conv, net, start)
				if vsol == nil {
					continue
				}
				if ph.down && !vg.RemoveEdge(e.A, e.B) {
					return fmt.Errorf("experiments: verify: removing %v: no such link", e)
				}
				if !ph.down {
					if err := vg.AddEdge(e.A, e.B, e.Rel); err != nil {
						return fmt.Errorf("experiments: verify: restoring %v: %w", e, err)
					}
				}
				if _, err := vsol.Resolve([]solver.Flip{{A: e.A, B: e.B}}); err != nil {
					return fmt.Errorf("experiments: verify: re-solving after %s %v: %w", verb, e, err)
				}
				if vs := invariant.CheckAt(net, vsol); len(vs) > 0 {
					return fmt.Errorf("experiments: verify: %d invariant violations after %s %v, e.g. %s",
						len(vs), verb, e, vs[0])
				}
			}
			out[i] = s
		}
		return nil
	}
}

// recordPhase folds one reconvergence phase ("down" after the failure,
// "up" after the restore) into telemetry: the shared totals and
// per-kind counters, the phase convergence time, and the
// per-destination route-settle times (relative to the flip instant)
// from the simulator's RouteChanged timestamps.
func (t *trial) recordPhase(st sim.Stats, phase string, conv time.Duration, net *sim.Network, start time.Duration) {
	if !t.tele.Enabled() {
		return
	}
	t.record(st, ".conv_"+phase+"_ms", conv)
	t.recordLoss(st)
	dest := t.tele.Distribution(t.series + ".dest_conv_ms")
	net.LastRouteChanges(func(_ routing.NodeID, at time.Duration) {
		dest.Observe(float64(at-start) / float64(time.Millisecond))
	})
}

// RunFlips cold-starts the protocol, then flips sampled links: fail,
// reconverge, restore, reconverge, measuring message units and
// convergence time for each phase. With the default TrialsPerNetwork=0
// every flip runs sequentially on one shared network; a positive value
// fans independent trial chunks out over the worker pool (see
// FlipConfig for the seeding rule).
func RunFlips(cfg FlipConfig) ([]FlipSample, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("experiments: FlipConfig.Topology is required")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("experiments: FlipConfig.Build is required")
	}
	out := make([]FlipSample, len(flipEdges(cfg)))
	if err := runTrials(flipTrials(cfg, "", out), cfg.workers); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure6Result holds the convergence-time CDFs (in milliseconds) of
// both protocols over the same flip workload.
type Figure6Result struct {
	Centaur *metrics.Dist
	// BGP is the headline series (MRAI per Scenario.MRAI).
	BGP *metrics.Dist
	// BGPNoMRAI is the timer-less lower bound series.
	BGPNoMRAI *metrics.Dist
	// FractionCentaurFaster is the share of flip phases where Centaur
	// reconverged strictly faster than the headline BGP.
	FractionCentaurFaster float64
	// FractionCentaurNotSlower additionally counts exact ties, which are
	// common against the MRAI-less lower bound: with zero modeled CPU
	// delay, phases without path exploration end at the identical
	// instant under both protocols.
	FractionCentaurNotSlower float64
	// HasImpact marks a user-impact run (Scenario.Flows > 0); the
	// Impact fields below then sum each series' per-phase data-plane
	// outcomes over the whole flip workload.
	HasImpact       bool
	CentaurImpact   forward.Impact
	BGPImpact       forward.Impact
	BGPNoMRAIImpact forward.Impact
}

// Figure6 runs the paper's convergence-time comparison: identical
// topology, delays, and flip sequence for Centaur and BGP. It reads s's
// topology, flip, seed, MRAI, parallelism, verify, observability, flow
// and detection fields; series names are "fig6.centaur", "fig6.bgp_mrai"
// and "fig6.bgp".
func Figure6(s Scenario) (*Figure6Result, error) { return figure6(s, runTrials) }

// figure6 is Figure6 with the trials run by run.
func figure6(s Scenario, run func([]trial, int) error) (*Figure6Result, error) {
	// All three series run the same hashed-tie-break policy, so one base
	// solution serves every trial's verification fork.
	trials, out, flows, err := s.dataPlaneSeries(
		series{hashedCentaur(centaur.Config{}), "fig6.centaur", "experiments: figure 6 centaur"},
		series{bgp.New(bgp.Config{MRAI: s.MRAI, Policy: hashedPolicy}), "fig6.bgp_mrai", "experiments: figure 6 bgp"},
		series{bgp.New(bgp.Config{Policy: hashedPolicy}), "fig6.bgp", "experiments: figure 6 bgp (no mrai)"})
	if err != nil {
		return nil, err
	}
	if err := run(trials, s.Workers); err != nil {
		return nil, err
	}
	cent, bgpr, bgpFast := out[0], out[1], out[2]
	res := &Figure6Result{
		Centaur:   metrics.NewDist(2 * len(cent)),
		BGP:       metrics.NewDist(2 * len(bgpr)),
		BGPNoMRAI: metrics.NewDist(2 * len(bgpFast)),
	}
	faster, notSlower, total := 0, 0, 0
	for i := range cent {
		phases := [][3]time.Duration{
			{cent[i].DownTime, bgpr[i].DownTime, bgpFast[i].DownTime},
			{cent[i].UpTime, bgpr[i].UpTime, bgpFast[i].UpTime},
		}
		for _, p := range phases {
			res.Centaur.Add(float64(p[0]) / float64(time.Millisecond))
			res.BGP.Add(float64(p[1]) / float64(time.Millisecond))
			res.BGPNoMRAI.Add(float64(p[2]) / float64(time.Millisecond))
			if p[0] < p[1] {
				faster++
			}
			if p[0] <= p[1] {
				notSlower++
			}
			total++
		}
	}
	if total > 0 {
		res.FractionCentaurFaster = float64(faster) / float64(total)
		res.FractionCentaurNotSlower = float64(notSlower) / float64(total)
	}
	if len(flows) > 0 {
		res.HasImpact = true
		for i := range cent {
			res.CentaurImpact.Add(cent[i].DownImpact)
			res.CentaurImpact.Add(cent[i].UpImpact)
			res.BGPImpact.Add(bgpr[i].DownImpact)
			res.BGPImpact.Add(bgpr[i].UpImpact)
			res.BGPNoMRAIImpact.Add(bgpFast[i].DownImpact)
			res.BGPNoMRAIImpact.Add(bgpFast[i].UpImpact)
		}
	}
	return res, nil
}

// String renders the Figure 6 summary and CDFs (milliseconds).
func (r *Figure6Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 6. Convergence time comparison (ms per flip phase).\n")
	fmt.Fprintf(&b, "  Centaur:        %s\n", r.Centaur.Summary())
	fmt.Fprintf(&b, "  BGP (MRAI):     %s\n", r.BGP.Summary())
	fmt.Fprintf(&b, "  BGP (no MRAI):  %s\n", r.BGPNoMRAI.Summary())
	fmt.Fprintf(&b, "  Centaur strictly faster than BGP in %.1f%% of flip phases (not slower in %.1f%%)\n",
		100*r.FractionCentaurFaster, 100*r.FractionCentaurNotSlower)
	if r.HasImpact {
		b.WriteString("  User impact over all flip phases (blackhole flow-seconds / loop packets / stuck flows):\n")
		fmt.Fprintf(&b, "    centaur:    %s\n", impactLine(r.CentaurImpact))
		fmt.Fprintf(&b, "    bgp-mrai:   %s\n", impactLine(r.BGPImpact))
		fmt.Fprintf(&b, "    bgp-nomrai: %s\n", impactLine(r.BGPNoMRAIImpact))
	}
	b.WriteString(renderCDFs(25, []namedDist{
		{"centaur", r.Centaur},
		{"bgp-mrai", r.BGP},
		{"bgp-nomrai", r.BGPNoMRAI},
	}))
	return b.String()
}

// impactLine renders one series' aggregated data-plane impact.
func impactLine(i forward.Impact) string {
	return fmt.Sprintf("bh=%.4fs loop=%.0fpkt valley=%.0fpkt stuck=%d",
		i.BlackholeSec, i.LoopPackets, i.ValleyDeliveries, i.FinalBlackholed+i.FinalLooping)
}

// Figure7Result holds the per-flip message-unit distributions of
// Centaur and OSPF.
type Figure7Result struct {
	// Centaur and OSPF are the per-flip-phase update-unit counts
	// (per-link announcements and per-LSA hops respectively).
	Centaur *metrics.Dist
	OSPF    *metrics.Dist
	// CentaurMsgs and OSPFMsgs count wire messages instead (Centaur
	// batches one delta per neighbor per round).
	CentaurMsgs *metrics.Dist
	OSPFMsgs    *metrics.Dist
	// CentaurBytes and OSPFBytes count encoded wire bytes, the unit-free
	// comparison.
	CentaurBytes *metrics.Dist
	OSPFBytes    *metrics.Dist
	// FractionCentaurFewer is the share of flip phases where Centaur
	// sent strictly fewer units than OSPF (the paper reports 82%).
	FractionCentaurFewer float64
	// HasImpact marks a user-impact run (Scenario.Flows > 0); the
	// Impact fields sum each series' per-phase data-plane outcomes.
	HasImpact     bool
	CentaurImpact forward.Impact
	OSPFImpact    forward.Impact
}

// Figure7 runs the paper's convergence-load comparison: identical
// topology, delays, and flip sequence for Centaur and OSPF. It reads the
// fields Figure6 does but MRAI; series names are "fig7.centaur" and
// "fig7.ospf".
func Figure7(s Scenario) (*Figure7Result, error) {
	trials, out, flows, err := s.dataPlaneSeries(
		series{hashedCentaur(centaur.Config{}), "fig7.centaur", "experiments: figure 7 centaur"},
		series{ospf.New(), "fig7.ospf", "experiments: figure 7 ospf"})
	if err != nil {
		return nil, err
	}
	if err := runTrials(trials, s.Workers); err != nil {
		return nil, err
	}
	cent, osp := out[0], out[1]
	res := &Figure7Result{
		Centaur:      metrics.NewDist(2 * len(cent)),
		OSPF:         metrics.NewDist(2 * len(osp)),
		CentaurMsgs:  metrics.NewDist(2 * len(cent)),
		OSPFMsgs:     metrics.NewDist(2 * len(osp)),
		CentaurBytes: metrics.NewDist(2 * len(cent)),
		OSPFBytes:    metrics.NewDist(2 * len(osp)),
	}
	fewer, total := 0, 0
	for i := range cent {
		pairs := [][2]int64{
			{cent[i].DownUnits, osp[i].DownUnits},
			{cent[i].UpUnits, osp[i].UpUnits},
		}
		msgs := [][2]int64{
			{cent[i].DownMsgs, osp[i].DownMsgs},
			{cent[i].UpMsgs, osp[i].UpMsgs},
		}
		for _, p := range pairs {
			res.Centaur.Add(float64(p[0]))
			res.OSPF.Add(float64(p[1]))
			if p[0] < p[1] {
				fewer++
			}
			total++
		}
		for _, m := range msgs {
			res.CentaurMsgs.Add(float64(m[0]))
			res.OSPFMsgs.Add(float64(m[1]))
		}
		res.CentaurBytes.Add(float64(cent[i].DownBytes))
		res.CentaurBytes.Add(float64(cent[i].UpBytes))
		res.OSPFBytes.Add(float64(osp[i].DownBytes))
		res.OSPFBytes.Add(float64(osp[i].UpBytes))
	}
	if total > 0 {
		res.FractionCentaurFewer = float64(fewer) / float64(total)
	}
	if len(flows) > 0 {
		res.HasImpact = true
		for i := range cent {
			res.CentaurImpact.Add(cent[i].DownImpact)
			res.CentaurImpact.Add(cent[i].UpImpact)
			res.OSPFImpact.Add(osp[i].DownImpact)
			res.OSPFImpact.Add(osp[i].UpImpact)
		}
	}
	return res, nil
}

// String renders the Figure 7 summary and CDFs (units per flip phase).
func (r *Figure7Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 7. Convergence load comparison (update units per flip phase).\n")
	fmt.Fprintf(&b, "  Centaur units: %s\n", r.Centaur.Summary())
	fmt.Fprintf(&b, "  OSPF units:    %s\n", r.OSPF.Summary())
	fmt.Fprintf(&b, "  Centaur msgs:  %s\n", r.CentaurMsgs.Summary())
	fmt.Fprintf(&b, "  OSPF msgs:     %s\n", r.OSPFMsgs.Summary())
	fmt.Fprintf(&b, "  Centaur bytes: %s\n", r.CentaurBytes.Summary())
	fmt.Fprintf(&b, "  OSPF bytes:    %s\n", r.OSPFBytes.Summary())
	if r.HasImpact {
		b.WriteString("  User impact over all flip phases (blackhole flow-seconds / loop packets / stuck flows):\n")
		fmt.Fprintf(&b, "    centaur: %s\n", impactLine(r.CentaurImpact))
		fmt.Fprintf(&b, "    ospf:    %s\n", impactLine(r.OSPFImpact))
	}
	fmt.Fprintf(&b, "  Centaur fewer units in %.1f%% of flip phases (paper: 82%%)\n", 100*r.FractionCentaurFewer)
	b.WriteString(renderCDFs(25, []namedDist{
		{"centaur", r.Centaur},
		{"ospf", r.OSPF},
	}))
	return b.String()
}

// Figure8Point is one sweep point: the mean update units per routing
// event for each protocol at one topology size.
type Figure8Point struct {
	Nodes int
	// Mean elementary update units per routing event.
	CentaurUnits float64
	BGPUnits     float64
	// Mean wire messages per routing event: the per-packet count, where
	// Centaur's batching of one delta per neighbor per round pays off.
	CentaurMsgs float64
	BGPMsgs     float64
	// Mean encoded wire bytes per routing event.
	CentaurBytes float64
	BGPBytes     float64
}

// Figure8Result is the scalability series of both protocols.
type Figure8Result struct {
	Points []Figure8Point
}

// Figure8 sweeps topology sizes and measures the mean per-event update
// overhead of Centaur and BGP ("the update overhead ... under different
// topology sizes given a routing update event"). It reads s's Sizes (the
// topology of size n is generated under seed Seed+n), LinksPerNode,
// Flips (per size), Seed, parallelism, Verify and observability fields;
// series names are "fig8.centaur" and "fig8.bgp" (all sizes fold
// together).
func Figure8(s Scenario) (*Figure8Result, error) {
	res := &Figure8Result{Points: make([]Figure8Point, 0, len(s.Sizes))}
	// Flatten size × protocol × trial chunk into one trial list so small
	// sizes don't leave the pool idle while a big size finishes.
	bySize := make([][][]FlipSample, len(s.Sizes))
	var trials []trial
	for i, n := range s.Sizes {
		g, err := topogen.BRITE(n, s.LinksPerNode, s.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		// Both series run the same hashed-tie-break policy, so one
		// verification solve per size serves every trial's fork.
		verify, err := verifySolution(g, s.Verify)
		if err != nil {
			return nil, err
		}
		ts, out := s.flipSeries(g, verify, nil, liveness.Config{},
			series{hashedCentaur(centaur.Config{}), "fig8.centaur", fmt.Sprintf("experiments: figure 8 centaur n=%d", n)},
			series{bgp.New(bgp.Config{Policy: hashedPolicy}), "fig8.bgp", fmt.Sprintf("experiments: figure 8 bgp n=%d", n)})
		trials = append(trials, ts...)
		bySize[i] = out
	}
	if err := runTrials(trials, s.Workers); err != nil {
		return nil, err
	}
	for i, n := range s.Sizes {
		cent, bgpr := bySize[i][0], bySize[i][1]
		pt := Figure8Point{Nodes: n}
		var cu, bu, cm, bm, cb, bb, events float64
		for i := range cent {
			cu += float64(cent[i].DownUnits + cent[i].UpUnits)
			bu += float64(bgpr[i].DownUnits + bgpr[i].UpUnits)
			cm += float64(cent[i].DownMsgs + cent[i].UpMsgs)
			bm += float64(bgpr[i].DownMsgs + bgpr[i].UpMsgs)
			cb += float64(cent[i].DownBytes + cent[i].UpBytes)
			bb += float64(bgpr[i].DownBytes + bgpr[i].UpBytes)
			events += 2
		}
		if events > 0 {
			pt.CentaurUnits = cu / events
			pt.BGPUnits = bu / events
			pt.CentaurMsgs = cm / events
			pt.BGPMsgs = bm / events
			pt.CentaurBytes = cb / events
			pt.BGPBytes = bb / events
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String renders the Figure 8 series.
func (r *Figure8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8. Scalability: mean update overhead per routing event.\n")
	fmt.Fprintf(&b, "%8s %12s %12s %12s %12s %12s %12s %10s\n",
		"nodes", "cent-units", "bgp-units", "cent-msgs", "bgp-msgs", "cent-bytes", "bgp-bytes", "msg-ratio")
	for _, p := range r.Points {
		ratio := 0.0
		if p.CentaurMsgs > 0 {
			ratio = p.BGPMsgs / p.CentaurMsgs
		}
		fmt.Fprintf(&b, "%8d %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f %10.2f\n",
			p.Nodes, p.CentaurUnits, p.BGPUnits, p.CentaurMsgs, p.BGPMsgs,
			p.CentaurBytes, p.BGPBytes, ratio)
	}
	return b.String()
}
