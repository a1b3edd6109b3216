// Command centaur-sim runs the event-driven experiments of the paper's
// §5.3 on the discrete-event simulator: the convergence-time comparison
// of Figure 6, the convergence-load comparison of Figure 7, and the
// scalability sweep of Figure 8.
//
// Usage:
//
//	centaur-sim -fig 6 -nodes 500 -flips 120
//	centaur-sim -fig 7 -nodes 500 -flips 120
//	centaur-sim -fig 8 -sizes 100,200,300,400,500 -flips 30
//	centaur-sim -compare -nodes 200 -flips 40   # protocol ladder
//	centaur-sim -rel -nodes 150 -loss 0.2,0.05 -churn 0,10 -fault-seed 42
//	centaur-sim -scaling -sizes 1000,4000,16000 -flips 30
//
// The -scaling mode skips the simulator entirely and sweeps the solver:
// per size it measures one cold all-destinations solve against a series
// of incrementally re-solved link flips (Solution.Resolve), verifying
// the warm-started tables answer-identical against a fresh cold solve
// unless -no-verify (shard-streamed above the sharded-layout cutover,
// so verification never doubles the resident footprint). The default
// tiers stop at 16k nodes; -scaling-max-nodes 75000 opts into the
// real-AS-scale point, which the sharded table layout keeps under a
// typical workstation's memory. The figure modes accept -verify to invariant-check
// every quiesced state of every flip trial against an incrementally
// maintained solver oracle — a correctness harness, observationally
// free for the measured samples.
//
// The -rel mode runs the reliability experiment: cold-start convergence
// under injected faults (-loss, -dup, -jitter per message; -churn link
// flaps per simulated second; -crashes node crash/restart cycles),
// every protocol wrapped in the reliable-transport adapter (disable
// with -no-transport to watch them fail diagnostically). The fault
// sequence is a pure function of -fault-seed: same seed, same faults,
// same results, for every -workers value. -bloom-pl switches the
// centaur series to Bloom-compressed Permission Lists (paper §4.1),
// with -pl-fp-rate setting the per-filter false-positive target;
// every filter false positive is denied, counted (pl.fp_hits), and
// traced (pl-fp events).
//
// All modes accept -workers and -trials-per-net to fan independent
// simulations out over a bounded worker pool; results are identical for
// every worker count (see experiments.FlipConfig). With -trials-per-net
// set, each series cold-starts once and forks its converged state per
// trial chunk (see sim.Checkpoint); -no-checkpoint restores the
// per-chunk cold starts. -cpuprofile and -memprofile write pprof
// profiles of the run.
//
// Observability: -trace file.jsonl records every simulator event as a
// structured JSONL trace (byte-identical across worker counts, so two
// runs diff cleanly), -debug-addr serves /debug/vars and /debug/pprof
// while the run is live, and -progress prints periodic chunk/ETA/msgs-s
// lines to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/experiments"
	"centaur/internal/forward"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
)

// newRegistry makes the run's telemetry registry; the golden tests
// swap it to read the registry a run filled.
var newRegistry = telemetry.New

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "centaur-sim:", err)
		os.Exit(1)
	}
}

// run executes one command line, printing the results to w; diagnostics
// and progress go to stderr.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("centaur-sim", flag.ExitOnError)
	var (
		fig        = fs.String("fig", "", "reproduce a figure: 6 | 7 | 8")
		compare    = fs.Bool("compare", false, "run the full protocol ladder (Centaur, BGP, BGP+MRAI, BGP-RCN, OSPF) on one flip workload")
		nodes      = fs.Int("nodes", 500, "BRITE topology size (figures 6 and 7)")
		m          = fs.Int("m", 2, "BRITE attachment links per node")
		flips      = fs.Int("flips", 120, "links flipped per measurement (0 = all)")
		seed       = fs.Int64("seed", 1, "topology, delay, and sampling seed")
		mrai       = fs.Duration("mrai", 30*time.Second, "BGP MRAI for the figure 6 headline series")
		sizes      = fs.String("sizes", "100,200,300,400,500,600,700,800,900,1000", "figure 8 topology sizes")
		workers    = fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		trialsPer  = fs.Int("trials-per-net", 0, "flip trials per fresh network; 0 = one shared network per series (historical semantics)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		noCheckpt  = fs.Bool("no-checkpoint", false, "disable converged-state checkpointing; cold-start every trial chunk")
		verify     = fs.Bool("verify", false, "figures 6-8: invariant-check every quiesced flip state against the incremental solver oracle")
		scaling    = fs.Bool("scaling", false, "run the solver scaling sweep (cold solve vs incremental flips; -sizes, -flips, -seed apply)")
		scalingMax = fs.Int("scaling-max-nodes", 16000, "scaling: largest default sweep tier (75000 adds the real-AS-scale point; ignored when -sizes is set)")
		noVerify   = fs.Bool("no-verify", false, "scaling: skip the answer-identical check against a fresh cold solve per size")
		traceFile  = fs.String("trace", "", "write a structured JSONL event trace to this file")
		prov       = fs.Bool("prov", false, "emit the trace with causal provenance (schema v2; requires -trace)")
		debugAddr  = fs.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		progress   = fs.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")

		rel         = fs.Bool("rel", false, "run the reliability experiment (convergence under injected faults)")
		loss        = fs.String("loss", "0,0.05,0.1,0.2", "reliability: comma-separated per-message loss rates")
		dup         = fs.Float64("dup", 0, "reliability: per-message duplication probability")
		jitter      = fs.Duration("jitter", 0, "reliability: max extra per-message delivery delay")
		churn       = fs.String("churn", "0,10", "reliability: comma-separated link-flap rates (flaps per simulated second)")
		crashes     = fs.Int("crashes", 0, "reliability: node crash/restart cycles per trial")
		faultSeed   = fs.Int64("fault-seed", 10_000, "reliability: fault-plan seed (same seed ⇒ same faults)")
		trials      = fs.Int("trials", 1, "reliability: trials per (protocol, loss, churn) grid point")
		noTransport = fs.Bool("no-transport", false, "reliability: run protocols raw, without the reliable-transport adapter")
		bloomPL     = fs.Bool("bloom-pl", false, "reliability: centaur sends Bloom-compressed Permission Lists")
		plFPRate    = fs.Float64("pl-fp-rate", 0, "reliability: per-filter false-positive target for -bloom-pl (0 = protocol default)")

		adv          = fs.Bool("adv", false, "run the adversarial experiment (route leaks, hijacks, interception, relationship-inference noise)")
		advKinds     = fs.String("adv-kinds", "leak,hijack", "adversarial: comma-separated attack kinds (leak|hijack|intercept)")
		advAttackers = fs.String("adv-attackers", "1", "adversarial: comma-separated simultaneous attacker counts")
		advNoise     = fs.String("adv-noise", "0", "adversarial: comma-separated fractions of c2p/p2p labels flipped before the protocols see the topology")
		advSeed      = fs.Int64("adv-seed", 40_000, "adversarial: attacker-selection and noise-relabeling seed")

		flows        = fs.Int("flows", 0, "data plane: src→dst traffic aggregates walked through the live RIBs (0 = off); figures 6/7, -rel, and -adv")
		flowSeed     = fs.Int64("flow-seed", 42, "data plane: flow sampling seed")
		flowRate     = fs.Float64("flow-rate", 0, "data plane: packets per second per flow for packet-equivalent metrics (0 = 1000)")
		detectIntv   = fs.String("detect-interval", "", "liveness: BFD transmit interval(s) — one duration for figures 6/7, a comma-separated sweep for -rel where 0 or oracle names the oracle point (empty = oracle detection; unlike centaur-bench -detect, the oracle point is swept only when listed or with -oracle-detect)")
		detectMult   = fs.Int("detect-mult", 0, "liveness: detection multiplier (0 = default 3)")
		oracleDetect = fs.Bool("oracle-detect", false, "liveness: -rel only, add the oracle (instantaneous detection) point to a -detect-interval sweep")
	)
	fs.Parse(args) // ExitOnError: a malformed flag has already exited
	// The runners read a count below one as "all" or "the default", so a
	// slip like -flips -1 would silently flip every link.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"flips", *flips}, {"workers", *workers}, {"trials-per-net", *trialsPer},
		{"flows", *flows}, {"crashes", *crashes}, {"trials", *trials},
	} {
		if c.v < 0 {
			return fmt.Errorf("-%s %d: a count cannot be negative", c.name, c.v)
		}
	}
	if *prov && *traceFile == "" {
		return fmt.Errorf("-prov requires -trace (provenance rides on the event trace)")
	}

	stop, err := telemetry.StartProfiles("centaur-sim", *cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	var (
		reg *telemetry.Registry
		tc  *telemetry.TraceCollector
	)
	if *traceFile != "" || *debugAddr != "" || *progress > 0 {
		reg = newRegistry()
		bgp.SetTelemetry(reg)
		ospf.SetTelemetry(reg)
		centaur.SetTelemetry(reg)
		pgraph.SetTelemetry(reg)
		solver.SetTelemetry(reg)
		forward.SetTelemetry(reg)
		liveness.SetTelemetry(reg)
	}
	if *traceFile != "" {
		if *prov {
			tc = telemetry.NewTraceCollectorV2()
		} else {
			tc = telemetry.NewTraceCollector()
		}
	}
	if *debugAddr != "" {
		addr, stopDebug, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "centaur-sim: debug endpoint at http://%s/debug/vars\n", addr)
	}
	if *progress > 0 {
		stopProgress := experiments.StartProgress(os.Stderr, *progress, reg)
		defer stopProgress()
	}

	sizesSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "sizes" {
			sizesSet = true
		}
	})

	dp := dataPlaneFlags{
		flows: *flows, flowSeed: *flowSeed, flowRate: *flowRate,
		detectIntervals: *detectIntv, detectMult: *detectMult, oracleDetect: *oracleDetect,
	}
	var dispatchErr error
	switch {
	case *scaling:
		dispatchErr = runScaling(w, *sizes, sizesSet, *scalingMax, *flips, *seed, !*noVerify)
	case *rel:
		dispatchErr = runReliability(w, relFlags{
			nodes: *nodes, m: *m, seed: *seed, workers: *workers,
			loss: *loss, dup: *dup, jitter: *jitter, churn: *churn,
			crashes: *crashes, faultSeed: *faultSeed, trials: *trials,
			noTransport: *noTransport, bloomPL: *bloomPL, plFPRate: *plFPRate,
			dp: dp,
		}, reg, tc)
	case *adv:
		dispatchErr = runAdversarial(w, advFlags{
			nodes: *nodes, m: *m, seed: *seed, workers: *workers,
			kinds: *advKinds, attackers: *advAttackers, noise: *advNoise,
			advSeed: *advSeed, trials: *trials, dp: dp,
		}, reg, tc)
	default:
		dispatchErr = dispatch(w, *fig, *compare, *nodes, *m, *flips, *seed, *mrai, *sizes, *workers, *trialsPer, *noCheckpt, *verify, dp, reg, tc)
	}
	if dispatchErr != nil {
		return dispatchErr
	}
	if *traceFile != "" {
		if err := writeTrace(*traceFile, tc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "centaur-sim: event trace: %s\n", *traceFile)
	}
	return nil
}

// dataPlaneFlags bundles the forwarding/liveness flag values shared by
// the figure modes and -rel.
type dataPlaneFlags struct {
	flows           int
	flowSeed        int64
	flowRate        float64
	detectIntervals string
	detectMult      int
	oracleDetect    bool
}

// single parses the flag set for a figure run, which takes at most one
// detection interval (the -rel sweep form is rejected).
func (f dataPlaneFlags) single() (time.Duration, error) {
	ds, err := parseDetects(f.detectIntervals)
	if err != nil {
		return 0, err
	}
	if len(ds) > 1 {
		return 0, fmt.Errorf("-detect-interval: figure modes take a single interval, got %q", f.detectIntervals)
	}
	if len(ds) == 0 {
		return 0, nil
	}
	return ds[0], nil
}

// sweep parses the flag set for -rel: every listed interval, plus the
// oracle point when -oracle-detect asks for it.
func (f dataPlaneFlags) sweep() ([]time.Duration, error) {
	ds, err := parseDetects(f.detectIntervals)
	if err != nil {
		return nil, err
	}
	if f.oracleDetect && len(ds) > 0 {
		ds = append([]time.Duration{0}, ds...)
	}
	return ds, nil
}

// dispatch runs the selected experiment mode with the observability
// hooks threaded through.
func dispatch(w io.Writer, fig string, compare bool, nodes, m, flips int, seed int64, mrai time.Duration, sizes string, workers, trialsPer int, noCheckpt, verify bool, dp dataPlaneFlags, reg *telemetry.Registry, tc *telemetry.TraceCollector) error {
	var res fmt.Stringer
	var err error
	if compare {
		res, err = experiments.Ladder(experiments.Figure6Config{
			Nodes: nodes, LinksPerNode: m, Flips: flips, Seed: seed, MRAI: mrai,
			TrialsPerNetwork: trialsPer, Workers: workers, NoCheckpoint: noCheckpt,
			Telemetry: reg, Trace: tc,
		})
	} else {
		res, err = runFigure(fig, nodes, m, flips, seed, mrai, sizes, workers, trialsPer, noCheckpt, verify, dp, reg, tc)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	return nil
}

// runFigure runs the selected figure.
func runFigure(fig string, nodes, m, flips int, seed int64, mrai time.Duration, sizes string, workers, trialsPer int, noCheckpt, verify bool, dp dataPlaneFlags, reg *telemetry.Registry, tc *telemetry.TraceCollector) (fmt.Stringer, error) {
	detect, err := dp.single()
	if err != nil {
		return nil, err
	}
	switch fig {
	case "6":
		return experiments.Figure6(experiments.Figure6Config{
			Nodes: nodes, LinksPerNode: m, Flips: flips, Seed: seed, MRAI: mrai,
			TrialsPerNetwork: trialsPer, Workers: workers,
			NoCheckpoint: noCheckpt, Verify: verify, Telemetry: reg, Trace: tc,
			Flows: dp.flows, FlowSeed: dp.flowSeed, FlowRate: dp.flowRate,
			DetectInterval: detect, DetectMult: dp.detectMult,
		})
	case "7":
		return experiments.Figure7(experiments.Figure7Config{
			Nodes: nodes, LinksPerNode: m, Flips: flips, Seed: seed,
			TrialsPerNetwork: trialsPer, Workers: workers,
			NoCheckpoint: noCheckpt, Verify: verify, Telemetry: reg, Trace: tc,
			Flows: dp.flows, FlowSeed: dp.flowSeed, FlowRate: dp.flowRate,
			DetectInterval: detect, DetectMult: dp.detectMult,
		})
	case "8":
		sz, err := parseSizes(sizes)
		if err != nil {
			return nil, err
		}
		return experiments.Figure8(experiments.Figure8Config{
			Sizes: sz, LinksPerNode: m, FlipsPerSize: flips, Seed: seed,
			TrialsPerNetwork: trialsPer, Workers: workers,
			NoCheckpoint: noCheckpt, Verify: verify, Telemetry: reg, Trace: tc,
		})
	default:
		return nil, fmt.Errorf("-fig {6,7,8} is required, got %q (-h lists the flags)", fig)
	}
}

// runScaling runs the solver scaling sweep (no simulator involved). The
// -sizes default targets figure 8; unless the flag was set explicitly
// the sweep uses the standard tiers up to -scaling-max-nodes (75000
// opts into the real-AS-scale point).
func runScaling(w io.Writer, sizesFlag string, sizesSet bool, maxNodes, flips int, seed int64, verify bool) error {
	var sz []int
	if sizesSet {
		var err error
		if sz, err = parseSizes(sizesFlag); err != nil {
			return err
		}
	} else {
		sz = experiments.ScalingSizesUpTo(maxNodes)
	}
	res, err := experiments.Scaling(experiments.ScalingConfig{
		Sizes: sz, Flips: flips, Seed: seed,
		TieBreak: policy.TieHashed, Verify: verify,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	return nil
}

// relFlags bundles the reliability-mode flag values.
type relFlags struct {
	nodes, m    int
	seed        int64
	workers     int
	loss, churn string
	dup         float64
	jitter      time.Duration
	crashes     int
	faultSeed   int64
	trials      int
	noTransport bool
	bloomPL     bool
	plFPRate    float64
	dp          dataPlaneFlags
}

// runReliability runs the fault-injection sweep and prints the
// per-grid-point table. Trials that fail (no quiescence, or a wrongly
// quiesced state) are listed after the table rather than aborting the
// sweep — with -no-transport they are the expected result.
func runReliability(w io.Writer, f relFlags, reg *telemetry.Registry, tc *telemetry.TraceCollector) error {
	lossRates, err := experiments.ParseRates(f.loss)
	if err != nil {
		return fmt.Errorf("-loss: %w", err)
	}
	churnRates, err := experiments.ParseRates(f.churn)
	if err != nil {
		return fmt.Errorf("-churn: %w", err)
	}
	detects, err := f.dp.sweep()
	if err != nil {
		return err
	}
	cfg := experiments.ReliabilityConfig{
		Nodes: f.nodes, LinksPerNode: f.m,
		LossRates: lossRates, ChurnRates: churnRates,
		Dup: f.dup, Jitter: f.jitter, Crashes: f.crashes,
		Trials: f.trials, Seed: f.seed, FaultSeed: f.faultSeed,
		NoTransport: f.noTransport, BloomPL: f.bloomPL, PLFPRate: f.plFPRate,
		Workers:   f.workers,
		Telemetry: reg, Trace: tc,
		Flows: f.dp.flows, FlowSeed: f.dp.flowSeed, FlowRate: f.dp.flowRate,
		DetectIntervals: detects, DetectMult: f.dp.detectMult,
	}
	if f.noTransport {
		// Raw protocols under faults usually quiesce into a wrong state
		// quickly; when one genuinely diverges, fail fast with the
		// watchdog's diagnostics instead of burning the full event budget.
		cfg.MaxEvents = 20_000_000
	}
	res, err := experiments.RunReliability(cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	for _, s := range res.Samples {
		if s.OK() {
			continue
		}
		why := s.Diagnostic
		if s.Converged {
			why = fmt.Sprintf("%d invariant violations, e.g. %s", s.Violations, s.FirstViolation)
		}
		if res.HasDetect {
			fmt.Fprintf(w, "  FAILED %s detect=%v loss=%.2f churn=%.1f trial=%d: %s\n", s.Protocol, s.DetectInterval, s.Loss, s.Churn, s.Trial, why)
			continue
		}
		fmt.Fprintf(w, "  FAILED %s loss=%.2f churn=%.1f trial=%d: %s\n", s.Protocol, s.Loss, s.Churn, s.Trial, why)
	}
	return nil
}

// advFlags bundles the adversarial-mode flag values.
type advFlags struct {
	nodes, m  int
	seed      int64
	workers   int
	kinds     string
	attackers string
	noise     string
	advSeed   int64
	trials    int
	dp        dataPlaneFlags
}

// runAdversarial runs the misbehavior sweep and prints the containment
// table: for each drawn attack scenario, how far contaminated state
// propagated under BGP vs under Centaur's Permission-List structure.
func runAdversarial(w io.Writer, f advFlags, reg *telemetry.Registry, tc *telemetry.TraceCollector) error {
	kinds, err := adversary.ParseKinds(f.kinds)
	if err != nil {
		return fmt.Errorf("-adv-kinds: %w", err)
	}
	counts, err := parseCounts(f.attackers)
	if err != nil {
		return fmt.Errorf("-adv-attackers: %w", err)
	}
	noises, err := experiments.ParseRates(f.noise)
	if err != nil {
		return fmt.Errorf("-adv-noise: %w", err)
	}
	res, err := experiments.RunAdversarial(experiments.AdversarialConfig{
		Nodes: f.nodes, LinksPerNode: f.m,
		Kinds: kinds, AttackerCounts: counts, NoiseFracs: noises,
		Trials: f.trials, Seed: f.seed, AdvSeed: f.advSeed,
		Flows: f.dp.flows, FlowSeed: f.dp.flowSeed, FlowRate: f.dp.flowRate,
		Workers:   f.workers,
		Telemetry: reg, Trace: tc,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	return nil
}

// parseDetects parses the -detect-interval list: comma-separated Go
// durations, with "0" or "oracle" naming the instantaneous-detection
// point. Empty means no liveness sweep at all (oracle only).
func parseDetects(s string) ([]time.Duration, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "0" || p == "oracle" {
			out = append(out, 0)
			continue
		}
		d, err := time.ParseDuration(p)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("-detect-interval: bad interval %q", p)
		}
		out = append(out, d)
	}
	return out, nil
}

// writeTrace dumps the collected trace to path.
func writeTrace(path string, tc *telemetry.TraceCollector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("-trace: %w", err)
	}
	if _, err := tc.WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("-trace: %w", err)
	}
	return f.Close()
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 8 {
			return nil, fmt.Errorf("bad size %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
