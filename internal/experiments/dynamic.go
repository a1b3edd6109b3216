package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"centaur/internal/policy"

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
)

// maxEvents bounds each simulation run; all protocols quiesce far below
// this, so hitting it indicates a bug rather than a slow run.
const maxEvents = 500_000_000

// hashedPolicy is the Gao-Rexford policy with per-node hashed
// tie-breaks, matching the static experiments (see
// policy.GaoRexford.HashedTieBreak for why).
var hashedPolicy = policy.GaoRexford{TieBreak: policy.TieHashed}

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
	// one shared network, which also costs only one cold start.
	TrialsPerNetwork int
	// Workers bounds how many chunks run concurrently; 0 means
	// GOMAXPROCS, 1 forces serial execution. The reported samples are
	// identical for every worker count: chunking is fixed by
	// TrialsPerNetwork and each chunk writes its own result slots.
	Workers int
	// NoCheckpoint disables converged-state checkpointing, making every
	// chunk cold-start its own network as before PR 3. By default, when a
	// run has more than one chunk and no trace attached, one network per
	// series is cold-started and checkpointed at convergence, and each
	// chunk forks that checkpoint under its own delay seed
	// (sim.Checkpoint.Fork) — same per-flip results, one cold start
	// instead of one per chunk. Tracing implies NoCheckpoint because each
	// chunk's trace must contain its own cold-start events to stay
	// byte-identical to the uncheckpointed output.
	NoCheckpoint bool
	// Verify, when non-nil, makes every flip trial invariant-checked:
	// after each reconvergence (fail and restore alike) the quiesced
	// RIBs are checked against ground truth that the incremental solver
	// maintains alongside the simulation. Verify must be the converged
	// solve of Topology under the protocol's policy; it is never
	// mutated — each job forks it onto a private graph clone
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
	// chunk per simulation is created at job-construction time (a serial
	// step), so the concatenated trace is byte-identical for every
	// worker count.
	Trace *telemetry.TraceCollector
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
	// checkpoints (each chunk cold-starts, like NoCheckpoint).
	Liveness liveness.Config
}

// flipJob is one independent unit of simulation work: a fresh network
// (topology + protocol + delaySeed) whose flip schedule fills out[i]
// for each edge, in order.
type flipJob struct {
	label     string
	series    string
	topo      *topology.Graph
	build     sim.Builder
	edges     []topology.Edge
	delaySeed int64
	out       []FlipSample
	tele      *telemetry.Registry
	chunk     *telemetry.TraceChunk
	// fork, when non-nil, is the series' shared checkpoint source: the
	// job forks its network from it instead of cold-starting one.
	fork *forkSource
	// verify, when non-nil, is the series' shared converged base
	// solution; see FlipConfig.Verify.
	verify *solver.Solution
	// flows/flowRate install a data-plane tracker on the job's network;
	// see FlipConfig.Flows.
	flows    []forward.Flow
	flowRate float64
}

// verifySolution cold-solves g under the shared hashed-tie-break policy
// when verification is requested; a nil result disables checking.
func verifySolution(g *topology.Graph, verify bool) (*solver.Solution, error) {
	if !verify {
		return nil, nil
	}
	sol, err := solver.SolveOpts(g, solver.Options{TieBreak: hashedPolicy.TieBreak})
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
		if sol, err = verifySolution(g, true); err != nil {
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

// flipJobs splits cfg's flip schedule into independent jobs writing into
// out (which must have one slot per scheduled flip). Trace chunks are
// created here, in serial job-construction order, which is what pins
// the chunk order — and hence the whole trace — across worker counts.
func flipJobs(cfg FlipConfig, label string, out []FlipSample) []flipJob {
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
	livenessOn := cfg.Liveness.TxInterval > 0 && cfg.Liveness.Enabled()
	if livenessOn {
		build = liveness.Wrap(build, cfg.Liveness)
	}
	// Checkpointing pays off only when several chunks would each repeat
	// the cold start; tracing needs every chunk's own cold-start events
	// in its trace, so it keeps the historical path (see
	// FlipConfig.NoCheckpoint). The liveness wrapper is not
	// snapshottable, so those runs skip the fork source rather than
	// cold-start it just to fail the snapshot.
	var fork *forkSource
	if !cfg.NoCheckpoint && cfg.Trace == nil && len(edges) > chunk && !livenessOn {
		fork = &forkSource{
			cfg:  sim.Config{Topology: cfg.Topology, Build: build, DelaySeed: cfg.Seed},
			tele: cfg.Telemetry,
		}
	}
	var jobs []flipJob
	for start := 0; start < len(edges); start += chunk {
		end := start + chunk
		if end > len(edges) {
			end = len(edges)
		}
		delaySeed := cfg.Seed + int64(start)
		jobs = append(jobs, flipJob{
			label:     label,
			series:    series,
			topo:      cfg.Topology,
			build:     build,
			edges:     edges[start:end],
			delaySeed: delaySeed,
			out:       out[start:end],
			tele:      cfg.Telemetry,
			chunk:     cfg.Trace.Chunk(series, delaySeed),
			fork:      fork,
			verify:    cfg.Verify,
			flows:     cfg.Flows,
			flowRate:  cfg.FlowRate,
		})
	}
	return jobs
}

// run acquires the job's converged network (a checkpoint fork or its
// own cold start) and measures its flip schedule.
func (j flipJob) run() error {
	net, err := j.network()
	if err != nil {
		return err
	}
	// The data-plane tracker attaches to the already-converged network,
	// so each phase's Window integrates exactly from its flip instant to
	// its quiescence — the cold start is not in any window.
	var tracker *forward.Tracker
	if len(j.flows) > 0 {
		tracker = forward.NewTracker(net, forward.Config{Flows: j.flows, PacketRate: j.flowRate})
		tracker.Install()
	}
	// The verification oracle: a private fork of the series' base
	// solution on a private graph clone, advanced edge-by-edge with the
	// incremental solver in lockstep with the simulated flips.
	var vg *topology.Graph
	var vsol *solver.Solution
	if j.verify != nil {
		vg = j.topo.Clone()
		if vsol, err = j.verify.CloneOn(vg); err != nil {
			return j.wrap(err)
		}
	}
	t0 := time.Now()
	defer func() { stageClock.flips.Add(int64(time.Since(t0))) }()
	for i, e := range j.edges {
		s := FlipSample{Link: e}
		net.ResetStats()
		start := net.Now()
		if !net.FailLink(e.A, e.B) {
			return j.wrap(fmt.Errorf("experiments: failing %v: link not up", e))
		}
		if _, _, err := net.RunToConvergence(maxEvents); err != nil {
			return j.wrap(fmt.Errorf("experiments: reconverging after failing %v: %w", e, err))
		}
		st := net.Stats()
		s.DownUnits = st.Units
		s.DownMsgs = st.Messages
		s.DownBytes = st.Bytes
		if st.Messages > 0 {
			s.DownTime = st.LastSend - start
		}
		if tracker != nil {
			s.DownImpact = tracker.Window(net.Now())
		}
		j.recordPhase("down", st, s.DownTime, net, start)
		if vsol != nil {
			if !vg.RemoveEdge(e.A, e.B) {
				return j.wrap(fmt.Errorf("experiments: verify: removing %v: no such link", e))
			}
			if err := j.checkQuiesced(net, vsol, e, "failing"); err != nil {
				return err
			}
		}
		net.ResetStats()
		start = net.Now()
		if !net.RestoreLink(e.A, e.B) {
			return j.wrap(fmt.Errorf("experiments: restoring %v: link not down", e))
		}
		if _, _, err := net.RunToConvergence(maxEvents); err != nil {
			return j.wrap(fmt.Errorf("experiments: reconverging after restoring %v: %w", e, err))
		}
		st = net.Stats()
		s.UpUnits = st.Units
		s.UpMsgs = st.Messages
		s.UpBytes = st.Bytes
		if st.Messages > 0 {
			s.UpTime = st.LastSend - start
		}
		if tracker != nil {
			s.UpImpact = tracker.Window(net.Now())
		}
		j.recordPhase("up", st, s.UpTime, net, start)
		if vsol != nil {
			if err := vg.AddEdge(e.A, e.B, e.Rel); err != nil {
				return j.wrap(fmt.Errorf("experiments: verify: restoring %v: %w", e, err))
			}
			if err := j.checkQuiesced(net, vsol, e, "restoring"); err != nil {
				return err
			}
		}
		j.out[i] = s
	}
	return nil
}

// checkQuiesced advances the oracle solution over the already-applied
// graph mutation and checks the quiesced network's RIBs against it.
func (j flipJob) checkQuiesced(net *sim.Network, vsol *solver.Solution, e topology.Edge, phase string) error {
	if _, err := vsol.Resolve([]solver.Flip{{A: e.A, B: e.B}}); err != nil {
		return j.wrap(fmt.Errorf("experiments: verify: re-solving after %s %v: %w", phase, e, err))
	}
	if vs := invariant.CheckAt(net, vsol); len(vs) > 0 {
		return j.wrap(fmt.Errorf("experiments: verify: %d invariant violations after %s %v, e.g. %s",
			len(vs), phase, e, vs[0]))
	}
	return nil
}

// network returns a converged network for the job: a fork of the
// series' shared checkpoint when one is configured (falling back to a
// cold start if the protocol is not snapshottable), otherwise its own
// cold-started network. Either way the returned network is quiesced
// and every link is up, so the flip loop starts from identical state.
func (j flipJob) network() (*sim.Network, error) {
	if j.fork != nil {
		cp, err := j.fork.checkpoint()
		switch {
		case err == nil:
			t0 := time.Now()
			net, err := cp.Fork(j.delaySeed)
			if err != nil {
				return nil, j.wrap(err)
			}
			stageClock.fork.Add(int64(time.Since(t0)))
			j.tele.Counter("sim.forks").Inc()
			return net, nil
		case !errors.Is(err, sim.ErrNotSnapshottable):
			return nil, j.wrap(err)
		}
		// Not snapshottable: every job cold-starts its own network.
	}
	cfg := sim.Config{
		Topology:  j.topo,
		Build:     j.build,
		DelaySeed: j.delaySeed,
	}
	if j.chunk != nil {
		cfg.Trace = j.chunk.Observe
		// A schema-v2 chunk needs the simulator to assign provenance
		// spans; a v1 chunk must not see them (byte-compat).
		cfg.Provenance = j.chunk.Provenance()
	}
	t0 := time.Now()
	net, err := sim.NewNetwork(cfg)
	if err != nil {
		return nil, j.wrap(err)
	}
	if _, _, err := net.RunToConvergence(maxEvents); err != nil {
		return nil, j.wrap(fmt.Errorf("experiments: cold start: %w", err))
	}
	stageClock.coldStart.Add(int64(time.Since(t0)))
	j.tele.Counter("sim.coldstarts").Inc()
	return net, nil
}

// recordPhase folds one reconvergence phase's accounting into the job's
// telemetry registry: process-wide simulator totals, per-series
// counters broken down by message kind, the phase convergence time, and
// the per-destination route-settle times (relative to the flip instant)
// from the simulator's RouteChanged timestamps.
func (j flipJob) recordPhase(phase string, st sim.Stats, conv time.Duration, net *sim.Network, start time.Duration) {
	r := j.tele
	if !r.Enabled() {
		return
	}
	r.Counter("sim.msgs").Add(st.Messages)
	r.Counter("sim.units").Add(st.Units)
	r.Counter("sim.bytes").Add(st.Bytes)
	r.Counter("sim.dropped").Add(st.Dropped)
	r.Counter("sim.undeliverable").Add(st.Undeliverable)
	r.Counter("sim.route_changes").Add(st.RouteChanges)
	for kind, msgs := range st.MsgsByKind {
		r.Counter(j.series + ".msgs." + kind).Add(msgs)
		r.Counter(j.series + ".units." + kind).Add(st.UnitsByKind[kind])
		r.Counter(j.series + ".bytes." + kind).Add(st.BytesByKind[kind])
	}
	r.Distribution(j.series + ".conv_" + phase + "_ms").Observe(float64(conv) / float64(time.Millisecond))
	dest := r.Distribution(j.series + ".dest_conv_ms")
	net.LastRouteChanges(func(_ routing.NodeID, at time.Duration) {
		dest.Observe(float64(at-start) / float64(time.Millisecond))
	})
}

// wrap prefixes job errors with the job's figure/protocol label.
func (j flipJob) wrap(err error) error {
	if j.label == "" {
		return err
	}
	return fmt.Errorf("%s: %w", j.label, err)
}

// runJobs executes a flattened job list on the shared bounded pool,
// feeding the process-wide progress monitor.
func runJobs(jobs []flipJob, workers int) error {
	poolProgress.total.Add(int64(len(jobs)))
	return parallelEach(len(jobs), workers, func(i int) error {
		err := jobs[i].run()
		poolProgress.done.Add(1)
		return err
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
	if err := runJobs(flipJobs(cfg, "", out), cfg.Workers); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure6Config parameterizes the convergence-time comparison. The
// paper's setup is a 500-node BRITE topology with link delays drawn
// uniformly from 0–5 ms, flipping each link in turn.
type Figure6Config struct {
	Nodes int
	// LinksPerNode is the BRITE attachment parameter m.
	LinksPerNode int
	// Flips caps the number of flipped links (0 = all).
	Flips int
	Seed  int64
	// MRAI is the batching timer of the headline BGP series. Session-
	// level BGP (the paper's DistComm comparator) rate-limits
	// advertisements; the eBGP default is 30 s. Centaur needs no such
	// timer — root cause notification suppresses the path exploration
	// MRAI exists to dampen — which is precisely the asymmetry Figure 6
	// demonstrates. A second, MRAI-less BGP series is always measured as
	// the lower bound.
	MRAI time.Duration
	// TrialsPerNetwork and Workers are the parallelism knobs, applied to
	// every protocol series; see FlipConfig. All three series fan out on
	// one shared pool (protocol × trial chunk), so even the default
	// TrialsPerNetwork=0 runs the protocols concurrently.
	TrialsPerNetwork int
	Workers          int
	// NoCheckpoint disables converged-state checkpointing; see FlipConfig.
	NoCheckpoint bool
	// Verify invariant-checks every quiesced state of every series
	// against incremental-solver ground truth (one cold solve up front,
	// microseconds per flip after); see FlipConfig.Verify.
	Verify bool
	// Telemetry and Trace are the observability hooks, shared by all
	// series; see FlipConfig. Series names are "fig6.centaur",
	// "fig6.bgp_mrai", and "fig6.bgp".
	Telemetry *telemetry.Registry
	Trace     *telemetry.TraceCollector
	// Flows enables the user-impact variant: that many seeded,
	// policy-reachable src→dst flows are re-walked through the live RIBs
	// during every flip phase, and the result carries each series'
	// aggregated blackhole/loop impact. 0 = classic Figure 6.
	Flows    int
	FlowSeed int64
	// FlowRate converts outcome-seconds to packet equivalents (0 =
	// forward's default, 1000/s).
	FlowRate float64
	// DetectInterval > 0 additionally runs every series under BFD-style
	// liveness detection at that transmit interval (DetectMult 0 =
	// liveness's default, 3) instead of oracle link-down notification:
	// reconvergence times then include failure-detection latency.
	DetectInterval time.Duration
	DetectMult     int
}

// DefaultFigure6Config is the paper's setup with a link sample large
// enough for a stable CDF.
func DefaultFigure6Config() Figure6Config {
	return Figure6Config{Nodes: 500, LinksPerNode: 2, Flips: 120, Seed: 1, MRAI: 30 * time.Second}
}

// Figure6Result holds the convergence-time CDFs (in milliseconds) of
// both protocols over the same flip workload.
type Figure6Result struct {
	Centaur *metrics.Dist
	// BGP is the headline series (MRAI per Figure6Config.MRAI).
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
	// HasImpact marks a user-impact run (Figure6Config.Flows > 0); the
	// Impact fields below then sum each series' per-phase data-plane
	// outcomes over the whole flip workload.
	HasImpact       bool
	CentaurImpact   forward.Impact
	BGPImpact       forward.Impact
	BGPNoMRAIImpact forward.Impact
}

// Figure6 runs the paper's convergence-time comparison: identical
// topology, delays, and flip sequence for Centaur and BGP.
func Figure6(cfg Figure6Config) (*Figure6Result, error) {
	g, err := topogen.BRITE(cfg.Nodes, cfg.LinksPerNode, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// All three series run the same hashed-tie-break policy, so one base
	// solution serves every job's verification fork.
	verify, err := verifySolution(g, cfg.Verify)
	if err != nil {
		return nil, err
	}
	flows, err := sampleReachableFlows(g, cfg.Flows, cfg.FlowSeed, verify)
	if err != nil {
		return nil, err
	}
	flip := func(b sim.Builder, series string) FlipConfig {
		return FlipConfig{Topology: g, Build: b, Flips: cfg.Flips, Seed: cfg.Seed,
			TrialsPerNetwork: cfg.TrialsPerNetwork, NoCheckpoint: cfg.NoCheckpoint,
			Verify: verify, Series: series, Telemetry: cfg.Telemetry, Trace: cfg.Trace,
			Flows: flows, FlowRate: cfg.FlowRate,
			Liveness: liveness.Config{TxInterval: cfg.DetectInterval, DetectMult: cfg.DetectMult}}
	}
	nFlips := len(flipEdges(flip(nil, "")))
	cent := make([]FlipSample, nFlips)
	bgpr := make([]FlipSample, nFlips)
	bgpFast := make([]FlipSample, nFlips)
	// One flat job list across all three protocol series: the pool is
	// never nested and stays busy even when chunk runtimes are skewed.
	var jobs []flipJob
	jobs = append(jobs, flipJobs(flip(centaur.New(centaur.Config{Policy: hashedPolicy}), "fig6.centaur"), "experiments: figure 6 centaur", cent)...)
	jobs = append(jobs, flipJobs(flip(bgp.New(bgp.Config{MRAI: cfg.MRAI, Policy: hashedPolicy}), "fig6.bgp_mrai"), "experiments: figure 6 bgp", bgpr)...)
	jobs = append(jobs, flipJobs(flip(bgp.New(bgp.Config{Policy: hashedPolicy}), "fig6.bgp"), "experiments: figure 6 bgp (no mrai)", bgpFast)...)
	if err := runJobs(jobs, cfg.Workers); err != nil {
		return nil, err
	}
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

// Figure7Config parameterizes the convergence-load comparison against
// OSPF on the same workload as Figure 6.
type Figure7Config struct {
	Nodes        int
	LinksPerNode int
	Flips        int
	Seed         int64
	// TrialsPerNetwork and Workers are the parallelism knobs; see
	// FlipConfig and Figure6Config.
	TrialsPerNetwork int
	Workers          int
	// NoCheckpoint disables converged-state checkpointing; see FlipConfig.
	NoCheckpoint bool
	// Verify invariant-checks every quiesced state; see Figure6Config.
	Verify bool
	// Telemetry and Trace are the observability hooks; series names are
	// "fig7.centaur" and "fig7.ospf".
	Telemetry *telemetry.Registry
	Trace     *telemetry.TraceCollector
	// Flows/FlowSeed/FlowRate and DetectInterval/DetectMult enable the
	// user-impact and liveness-detection variants; see Figure6Config.
	Flows          int
	FlowSeed       int64
	FlowRate       float64
	DetectInterval time.Duration
	DetectMult     int
}

// DefaultFigure7Config mirrors the paper's 500-node setup.
func DefaultFigure7Config() Figure7Config {
	return Figure7Config{Nodes: 500, LinksPerNode: 2, Flips: 120, Seed: 1}
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
	// HasImpact marks a user-impact run (Figure7Config.Flows > 0); the
	// Impact fields sum each series' per-phase data-plane outcomes.
	HasImpact     bool
	CentaurImpact forward.Impact
	OSPFImpact    forward.Impact
}

// Figure7 runs the paper's convergence-load comparison: identical
// topology, delays, and flip sequence for Centaur and OSPF.
func Figure7(cfg Figure7Config) (*Figure7Result, error) {
	g, err := topogen.BRITE(cfg.Nodes, cfg.LinksPerNode, cfg.Seed)
	if err != nil {
		return nil, err
	}
	verify, err := verifySolution(g, cfg.Verify)
	if err != nil {
		return nil, err
	}
	flows, err := sampleReachableFlows(g, cfg.Flows, cfg.FlowSeed, verify)
	if err != nil {
		return nil, err
	}
	flip := func(b sim.Builder, series string) FlipConfig {
		return FlipConfig{Topology: g, Build: b, Flips: cfg.Flips, Seed: cfg.Seed,
			TrialsPerNetwork: cfg.TrialsPerNetwork, NoCheckpoint: cfg.NoCheckpoint,
			Verify: verify, Series: series, Telemetry: cfg.Telemetry, Trace: cfg.Trace,
			Flows: flows, FlowRate: cfg.FlowRate,
			Liveness: liveness.Config{TxInterval: cfg.DetectInterval, DetectMult: cfg.DetectMult}}
	}
	nFlips := len(flipEdges(flip(nil, "")))
	cent := make([]FlipSample, nFlips)
	osp := make([]FlipSample, nFlips)
	var jobs []flipJob
	jobs = append(jobs, flipJobs(flip(centaur.New(centaur.Config{Policy: hashedPolicy}), "fig7.centaur"), "experiments: figure 7 centaur", cent)...)
	jobs = append(jobs, flipJobs(flip(ospf.New(), "fig7.ospf"), "experiments: figure 7 ospf", osp)...)
	if err := runJobs(jobs, cfg.Workers); err != nil {
		return nil, err
	}
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

// Figure8Config parameterizes the scalability sweep.
type Figure8Config struct {
	// Sizes are the topology node counts to sweep.
	Sizes []int
	// LinksPerNode is the BRITE attachment parameter m.
	LinksPerNode int
	// FlipsPerSize is the number of update events measured per size.
	FlipsPerSize int
	Seed         int64
	// TrialsPerNetwork and Workers are the parallelism knobs; the pool
	// spans size × protocol × trial chunk.
	TrialsPerNetwork int
	Workers          int
	// NoCheckpoint disables converged-state checkpointing; see FlipConfig.
	NoCheckpoint bool
	// Verify invariant-checks every quiesced state (one verification
	// solve per sweep size); see Figure6Config.
	Verify bool
	// Telemetry and Trace are the observability hooks; series names are
	// "fig8.centaur" and "fig8.bgp" (all sizes fold together).
	Telemetry *telemetry.Registry
	Trace     *telemetry.TraceCollector
}

// DefaultFigure8Config sweeps 100–1000 nodes like the paper's Figure 8.
func DefaultFigure8Config() Figure8Config {
	return Figure8Config{
		Sizes:        []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		LinksPerNode: 2,
		FlipsPerSize: 30,
		Seed:         1,
	}
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
// topology sizes given a routing update event").
func Figure8(cfg Figure8Config) (*Figure8Result, error) {
	res := &Figure8Result{Points: make([]Figure8Point, 0, len(cfg.Sizes))}
	// Flatten size × protocol × trial chunk into one job list so small
	// sizes don't leave the pool idle while a big size finishes.
	centBySize := make([][]FlipSample, len(cfg.Sizes))
	bgpBySize := make([][]FlipSample, len(cfg.Sizes))
	var jobs []flipJob
	for i, n := range cfg.Sizes {
		g, err := topogen.BRITE(n, cfg.LinksPerNode, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		// Both series run the same hashed-tie-break policy, so one
		// verification solve per size serves every job's fork.
		verify, err := verifySolution(g, cfg.Verify)
		if err != nil {
			return nil, err
		}
		flip := func(b sim.Builder, series string) FlipConfig {
			return FlipConfig{Topology: g, Build: b, Flips: cfg.FlipsPerSize, Seed: cfg.Seed,
				TrialsPerNetwork: cfg.TrialsPerNetwork, NoCheckpoint: cfg.NoCheckpoint,
				Verify: verify, Series: series, Telemetry: cfg.Telemetry, Trace: cfg.Trace}
		}
		nFlips := len(flipEdges(flip(nil, "")))
		centBySize[i] = make([]FlipSample, nFlips)
		bgpBySize[i] = make([]FlipSample, nFlips)
		jobs = append(jobs, flipJobs(flip(centaur.New(centaur.Config{Policy: hashedPolicy}), "fig8.centaur"), fmt.Sprintf("experiments: figure 8 centaur n=%d", n), centBySize[i])...)
		jobs = append(jobs, flipJobs(flip(bgp.New(bgp.Config{Policy: hashedPolicy}), "fig8.bgp"), fmt.Sprintf("experiments: figure 8 bgp n=%d", n), bgpBySize[i])...)
	}
	if err := runJobs(jobs, cfg.Workers); err != nil {
		return nil, err
	}
	for i, n := range cfg.Sizes {
		cent, bgpr := centBySize[i], bgpBySize[i]
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
