// The reliability experiment: cold-start convergence under injected
// faults. Where Figures 6–8 measure protocol cost on a reliable
// message substrate (the paper's DistComm platform), this experiment
// removes that assumption: messages are lost, duplicated, and jittered,
// links flap, and nodes crash mid-convergence — and each protocol runs
// either raw or wrapped in the reliable-transport adapter
// (sim.Reliable). After quiescence the converged state is checked
// against the solver ground truth (internal/invariant), because a
// protocol without transport reliability typically fails by quiescing
// into a *wrong* stable state rather than by never quiescing.
//
// Determinism contract: trial j of the flattened trial list uses delay
// seed Scenario.Seed+j and fault seed FaultSeed+j; otherwise as for
// every trial (see trial) — samples, counters, and the concatenated
// trace are byte-identical for every Workers value.
package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/faults"
	"centaur/internal/forward"
	"centaur/internal/invariant"
	"centaur/internal/liveness"
	"centaur/internal/metrics"
	"centaur/internal/ospf"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/trace"
)

// ReliabilityConfig is the reliability sweep's own axes: every protocol
// series runs Trials trials at each (loss, churn) grid point, once per
// detection interval.
type ReliabilityConfig struct {
	// LossRates and ChurnRates span the measurement grid. Loss is the
	// per-message drop probability; churn is in link flaps per simulated
	// second. Empty slices mean a single 0 point.
	LossRates  []float64
	ChurnRates []float64
	// Dup and Jitter apply at every grid point (they stress ordering, not
	// the headline axes).
	Dup    float64
	Jitter time.Duration
	// Crashes is the number of node crash/restart cycles injected per
	// trial.
	Crashes int
	// window is faults.Plan.Window for the crashes and the flap schedule
	// (0 = its default, 1 s); only tests set it.
	window time.Duration
	// Trials per (protocol, loss, churn) grid point. Default 1.
	Trials int
	// FaultSeed drives per-trial fault plans: trial j of the flattened
	// trial list uses fault seed FaultSeed+j (and delay seed
	// Scenario.Seed+j).
	FaultSeed int64
	// NoTransport runs the protocols raw instead of wrapped in
	// sim.Reliable — the diagnostic mode that demonstrates why the
	// adapter exists.
	NoTransport bool
	// MaxEvents caps each trial's event count; 0 means the package-wide
	// default. Diagnostic no-transport runs set it low so a genuinely
	// diverging trial fails fast with watchdog diagnostics.
	MaxEvents int64
	// BloomPL runs the centaur series with Bloom-compressed Permission
	// Lists (centaur.Config.BloomPL); PLFPRate sets the per-filter
	// false-positive target (0 = centaur.DefaultPLFPRate). The other
	// series are unaffected. With BloomPL false the sweep is bit-for-bit
	// what it was before the option existed.
	BloomPL  bool
	PLFPRate float64
	// DetectIntervals sweeps BFD-style failure detection: each entry runs
	// the full (protocol × loss × churn × trial) grid with every node's
	// links guarded by liveness sessions at that transmit interval
	// (Scenario.DetectMult applies). A 0 entry is the oracle point —
	// instantaneous link-down notification, exactly the pre-liveness
	// simulator. Empty means oracle only.
	DetectIntervals []time.Duration
}

// ReliabilitySample is one trial's outcome.
type ReliabilitySample struct {
	Protocol string
	Loss     float64
	Churn    float64
	Trial    int
	// Converged reports quiescence within the event budget; when false,
	// Diagnostic carries the convergence watchdog's report (pending
	// messages per node) and the remaining fields are partial.
	Converged  bool
	Diagnostic string
	// ConvergenceTime is the instant of the last message send — with
	// faults injected from t=0, the time to reach the final stable state.
	ConvergenceTime time.Duration
	// Message accounting: Delivered = Messages − Dropped − Undeliverable;
	// DeliverySuccess = Delivered/Messages (1 when no messages).
	Messages        int64
	Delivered       int64
	FaultDrops      int64
	DeliverySuccess float64
	// Transport effort (zero in NoTransport runs).
	Retransmits   int64
	DupSuppressed int64
	Abandoned     int64
	// Violations counts invariant breaches in the quiesced state
	// (loop-free, valley-free, RIB-equals-solver); FirstViolation samples
	// one for diagnostics. A converged trial with violations quiesced
	// into a wrong stable state.
	Violations     int
	FirstViolation string
	// PLFalsePositives counts Bloom-filter false-positive hits during
	// Permission List checks (each one detected against the explicit
	// oracle and denied — exposure, not damage). Always 0 without
	// ReliabilityConfig.BloomPL.
	PLFalsePositives int64
	// DetectInterval is this trial's BFD transmit interval (0 = oracle
	// instantaneous detection).
	DetectInterval time.Duration
	// Impact is the integrated data-plane outcome over the whole trial
	// (zero when the sweep ran without flows).
	Impact forward.Impact
	// BFD sums the liveness sessions' accounting across all nodes (zero
	// at oracle points).
	BFD liveness.SessionStats
}

// OK reports a fully successful trial: quiesced and solver-verified.
func (s ReliabilitySample) OK() bool { return s.Converged && s.Violations == 0 }

// ReliabilityResult holds every trial of the sweep, in deterministic
// (protocol, detect, loss, churn, trial) order. HasImpact/HasDetect
// record whether the sweep ran with flows resp. a liveness sweep, so
// String renders the extra columns only when they carry data — a sweep
// with both off prints exactly what it did before they existed.
type ReliabilityResult struct {
	Samples   []ReliabilitySample
	HasImpact bool
	HasDetect bool
}

// relBody measures one reliability trial into s: the cold start under
// the trial's fault plan, checked against sol once quiesced.
func relBody(s *ReliabilitySample, sol *solver.Solution) func(*trial, *sim.Network, *forward.Tracker) error {
	return func(t *trial, net *sim.Network, tracker *forward.Tracker) error {
		o := t.converge(net)
		st := o.st
		s.Converged, s.Diagnostic, s.ConvergenceTime = o.sample()
		s.Messages = st.Messages
		s.Delivered = st.Messages - st.Dropped - st.Undeliverable
		s.FaultDrops = st.FaultDrops
		s.DeliverySuccess = 1
		if st.Messages > 0 {
			s.DeliverySuccess = float64(s.Delivered) / float64(st.Messages)
		}
		s.Retransmits = st.Retransmits
		s.DupSuppressed = st.DupSuppressed
		s.Abandoned = st.TransportAbandoned
		s.PLFalsePositives = net.Notes(trace.NotePLFalsePositive)
		if tracker != nil {
			// One measurement window over the whole trial, closed at the
			// quiescence instant (or wherever the budget ran out).
			s.Impact = tracker.Window(net.Now())
		}
		if s.DetectInterval > 0 {
			s.BFD = liveness.Collect(net, t.topo.Nodes())
		}
		if s.Converged {
			vs := invariant.Check(net, sol)
			if tracker != nil {
				// The data-plane walker must agree with the oracle wherever the
				// control plane does: every tracked flow checks out against the
				// solver (path-vector) or shortest-path distances (next-hop).
				vs = append(vs, invariant.CheckFlows(net, sol, t.flows)...)
			}
			if len(vs) > 0 {
				s.Violations = len(vs)
				s.FirstViolation = vs[0].String()
			}
		}
		r := t.tele
		if !r.Enabled() {
			return nil
		}
		// The faults.* counters are incremented by the injector itself.
		t.record(st, ".conv_ms", o.conv)
		t.recordLoss(st)
		r.Counter("transport.retransmits").Add(st.Retransmits)
		r.Counter("transport.dup_suppressed").Add(st.DupSuppressed)
		r.Counter("transport.abandoned").Add(st.TransportAbandoned)
		// Registered only when a hit occurred, so a BloomPL-off run's
		// telemetry snapshot is byte-identical to pre-option runs.
		if s.PLFalsePositives > 0 {
			r.Counter("sim.pl_fp").Add(s.PLFalsePositives)
		}
		// Registered only when the data plane ran, so a flow-less run's
		// telemetry snapshot is byte-identical to pre-data-plane runs.
		if tracker != nil {
			r.Distribution(t.series + ".blackhole_s").Observe(s.Impact.BlackholeSec)
			r.Distribution(t.series + ".loop_pkts").Observe(s.Impact.LoopPackets)
			r.Distribution(t.series + ".valley_pkts").Observe(s.Impact.ValleyDeliveries)
		}
		return nil
	}
}

// RunReliability sweeps cfg's (protocol × detection × loss × churn ×
// trial) grid on s's BRITE topology. It reads s's topology, seed,
// Workers, observability, flow and DetectMult fields; series names are
// "rel.centaur", "rel.bgp" and "rel.ospf". Trials that fail to quiesce
// or quiesce into a wrong state are reported in their samples, not as
// errors — they are measurements.
func RunReliability(s Scenario, cfg ReliabilityConfig) (*ReliabilityResult, error) {
	g, err := s.brite()
	if err != nil {
		return nil, err
	}
	sol, err := hashedSolve(g)
	if err != nil {
		return nil, err
	}
	lossRates := cfg.LossRates
	if len(lossRates) == 0 {
		lossRates = []float64{0}
	}
	churnRates := cfg.ChurnRates
	if len(churnRates) == 0 {
		churnRates = []float64{0}
	}
	nTrials := max(cfg.Trials, 1)
	detects := cfg.DetectIntervals
	if len(detects) == 0 {
		detects = []time.Duration{0}
	}
	// The traffic matrix is sampled once per sweep, restricted to
	// policy-reachable pairs so steady-state blackhole time measures
	// faults, not policy holes. (Graph-reachable ⊇ policy-reachable, so
	// the restriction is sound for the shortest-path series too.)
	flows, err := sampleReachableFlows(g, s.Flows, s.FlowSeed, sol)
	if err != nil {
		return nil, err
	}

	// The fixed series list, matching the Figure 6 policy setup (hashed
	// tie-breaks) so one solver solution verifies both path-vector
	// protocols. OSPF runs with DatabaseExchange: without it a crashed
	// router cannot rejoin, and the fault workload crashes routers.
	protos := []struct {
		name  string
		build sim.Builder
	}{
		{"centaur", hashedCentaur(centaur.Config{BloomPL: cfg.BloomPL, PLFPRate: cfg.PLFPRate})},
		{"bgp", bgp.New(bgp.Config{Policy: hashedPolicy})},
		{"ospf", ospf.NewWithConfig(ospf.Config{DatabaseExchange: true})},
	}
	res := &ReliabilityResult{
		Samples:   make([]ReliabilitySample, len(protos)*len(detects)*len(lossRates)*len(churnRates)*nTrials),
		HasImpact: len(flows) > 0,
	}
	for _, d := range detects {
		if d > 0 {
			res.HasDetect = true
		}
	}
	var trials []trial
	for _, p := range protos {
		base := p.build
		if !cfg.NoTransport {
			base = sim.Reliable(base, sim.ReliableConfig{})
		}
		series := "rel." + p.name
		for _, detect := range detects {
			// Liveness wraps outside the transport: it must hear raw carrier
			// events, and its control frames must not ride the retransmitting
			// transport.
			// A 0 interval is the oracle point: no detector, the
			// simulator's instantaneous link notifications.
			build := base
			if detect > 0 {
				build = liveness.Wrap(base, liveness.Config{TxInterval: detect, DetectMult: s.DetectMult})
			}
			for _, loss := range lossRates {
				for _, churn := range churnRates {
					for k := 0; k < nTrials; k++ {
						i := len(trials)
						res.Samples[i] = ReliabilitySample{
							Protocol: p.name, Loss: loss, Churn: churn, Trial: k,
							DetectInterval: detect,
						}
						plan := faults.Plan{
							Seed:    cfg.FaultSeed + int64(i),
							Loss:    loss,
							Dup:     cfg.Dup,
							Jitter:  cfg.Jitter,
							Churn:   churn,
							Crashes: cfg.Crashes,
							Window:  cfg.window,
						}
						trials = append(trials, trial{
							label: "experiments: reliability " + p.name,
							topo:  g, build: build, delaySeed: s.Seed + int64(i), budget: cfg.MaxEvents,
							series: series, tele: s.Telemetry, chunk: s.Trace.Chunk(series, s.Seed+int64(i)),
							flows: flows, flowRate: s.FlowRate,
							setup: func(net *sim.Network) {
								if plan.Active() {
									faults.Attach(net, plan, s.Telemetry)
								}
							},
							body: relBody(&res.Samples[i], sol),
						})
					}
				}
			}
		}
	}
	if err := runTrials(trials, s.Workers); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders per-grid-point aggregates: convergence time, delivery
// success, transport effort, verification outcome, and — when the
// sweep ran them — data-plane user impact and detection latency.
func (r *ReliabilityResult) String() string {
	type key struct {
		proto  string
		detect time.Duration
		loss   float64
		churn  float64
	}
	type agg struct {
		conv    *metrics.Dist
		success float64
		rexmit  int64
		plfp    int64
		trials  int
		ok      int
		imp     forward.Impact
		bfd     liveness.SessionStats
	}
	order := make([]key, 0)
	points := make(map[key]*agg)
	for _, s := range r.Samples {
		k := key{s.Protocol, s.DetectInterval, s.Loss, s.Churn}
		a := points[k]
		if a == nil {
			a = &agg{conv: metrics.NewDist(8)}
			points[k] = a
			order = append(order, k)
		}
		a.trials++
		a.success += s.DeliverySuccess
		a.rexmit += s.Retransmits
		a.plfp += s.PLFalsePositives
		a.imp.Add(s.Impact)
		a.bfd.Add(s.BFD)
		if s.OK() {
			a.ok++
			a.conv.Add(float64(s.ConvergenceTime) / float64(time.Millisecond))
		}
	}
	var b []byte
	b = append(b, "Reliability. Convergence under loss/churn (per grid point).\n"...)
	var totalBlackhole float64
	for _, k := range order {
		a := points[k]
		line := fmt.Sprintf("  %-8s loss=%.2f churn=%5.1f  ok %d/%d  conv %s  delivery %.3f  rexmit %d",
			k.proto, k.loss, k.churn, a.ok, a.trials, a.conv.Summary(), a.success/float64(a.trials), a.rexmit)
		if r.HasDetect {
			line = fmt.Sprintf("  %-8s detect=%-6s loss=%.2f churn=%5.1f  ok %d/%d  conv %s  delivery %.3f  rexmit %d",
				k.proto, detectLabel(k.detect), k.loss, k.churn, a.ok, a.trials, a.conv.Summary(), a.success/float64(a.trials), a.rexmit)
		}
		if a.plfp > 0 {
			// Only Bloom-compressed runs can hit this, so runs without the
			// option render exactly as before.
			line += fmt.Sprintf("  pl-fp %d", a.plfp)
		}
		if r.HasImpact {
			totalBlackhole += a.imp.BlackholeSec
			line += fmt.Sprintf("  bh=%.4fs loop=%.0fpkt valley=%.0fpkt stuck=%d",
				a.imp.BlackholeSec, a.imp.LoopPackets, a.imp.ValleyDeliveries,
				a.imp.FinalBlackholed+a.imp.FinalLooping)
		}
		if r.HasDetect && k.detect > 0 {
			line += fmt.Sprintf("  det=%d/%.1fms false-down=%d",
				a.bfd.Detections, float64(a.bfd.MeanDetect())/float64(time.Millisecond), a.bfd.FalseDowns)
		}
		b = append(b, line...)
		b = append(b, '\n')
	}
	if r.HasImpact {
		b = append(b, fmt.Sprintf("  total blackhole flow-seconds: %.6f\n", totalBlackhole)...)
	}
	return string(b)
}

// detectLabel renders a detection interval column ("oracle" for 0).
func detectLabel(d time.Duration) string {
	if d == 0 {
		return "oracle"
	}
	return d.String()
}

// ParseRates parses a comma-separated grid axis of nonnegative rates
// (loss rates, churn rates, noise fractions) as the CLIs take them.
func ParseRates(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad rate %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
