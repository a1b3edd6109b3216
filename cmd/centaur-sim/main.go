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
// The simulating modes accept -workers to fan independent simulations
// out over a bounded worker pool; results are identical for every worker
// count (see experiments.FlipConfig). With -trials-per-net set, each flip
// series cold-starts once and forks its converged state per trial chunk
// (see sim.Checkpoint). Every mode accepts -cpuprofile and -memprofile,
// which write pprof profiles of the run, and rejects any flag it does
// not read (see modes).
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
	"centaur/internal/experiments"
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

// help is centaur-sim's text for the shared flags whose text differs
// from centaur-bench's.
var help = map[string]string{
	"seed":              "topology, delay, and sampling seed",
	"trace":             "write a structured JSONL event trace to this file",
	"prov":              "emit the trace with causal provenance (schema v2; requires -trace)",
	"loss":              "reliability: comma-separated per-message loss rates",
	"dup":               "reliability: per-message duplication probability",
	"jitter":            "reliability: max extra per-message delivery delay",
	"churn":             "reliability: comma-separated link-flap rates (flaps per simulated second)",
	"crashes":           "reliability: node crash/restart cycles per trial",
	"fault-seed":        "reliability: fault-plan seed (same seed ⇒ same faults)",
	"bloom-pl":          "reliability: centaur sends Bloom-compressed Permission Lists",
	"pl-fp-rate":        "reliability: per-filter false-positive target for -bloom-pl (0 = protocol default)",
	"adv":               "run the adversarial experiment (route leaks, hijacks, interception, relationship-inference noise)",
	"adv-seed":          "adversarial: attacker-selection and noise-relabeling seed",
	"flows":             "data plane: src→dst traffic aggregates walked through the live RIBs (0 = off); figures 6/7, -rel, and -adv",
	"scaling":           "run the solver scaling sweep (cold solve vs incremental flips; -sizes, -flips, -seed apply)",
	"scaling-max-nodes": "scaling: largest default sweep tier (75000 adds the real-AS-scale point; ignored when -sizes is set)",
}

// options is centaur-sim's parsed command line: the shared flags and
// its own.
type options struct {
	*experiments.CLI
	fig                     string
	compare, rel, noVerify  bool
	sizes                   string
	trials                  int
	kinds, attackers, noise string
	detect                  string
}

// mode is one way centaur-sim runs: its name as the command line selects
// it, the flags it reads besides the setup flags every mode honours, and
// its runner.
type mode struct {
	name  string
	reads string
	run   func(o *options) (fmt.Stringer, error)
}

// modes is every way centaur-sim runs. A flag set on the command line
// that the selected mode does not read fails the run before anything
// runs.
var modes = []mode{
	{"-fig 6", "fig nodes m flips seed mrai workers trials-per-net verify trace prov flows flow-seed flow-rate detect-interval detect-mult", func(o *options) (fmt.Stringer, error) {
		if err := o.single(); err != nil {
			return nil, err
		}
		return experiments.Figure6(o.Scenario)
	}},
	{"-fig 7", "fig nodes m flips seed workers trials-per-net verify trace prov flows flow-seed flow-rate detect-interval detect-mult", func(o *options) (fmt.Stringer, error) {
		if err := o.single(); err != nil {
			return nil, err
		}
		return experiments.Figure7(o.Scenario)
	}},
	{"-fig 8", "fig sizes m flips seed workers trials-per-net verify trace prov", func(o *options) (fmt.Stringer, error) {
		var err error
		if o.Scenario.Sizes, err = parseSizes(o.sizes); err != nil {
			return nil, err
		}
		return experiments.Figure8(o.Scenario)
	}},
	{"-compare", "compare nodes m flips seed mrai workers trials-per-net trace prov", func(o *options) (fmt.Stringer, error) {
		return experiments.Ladder(o.Scenario)
	}},
	{"-rel", "rel nodes m seed workers trace prov loss dup jitter churn crashes fault-seed trials no-transport bloom-pl pl-fp-rate flows flow-seed flow-rate detect-interval detect-mult", runReliability},
	{"-adv", "adv nodes m seed workers trace prov adv-kinds adv-attackers adv-noise adv-seed trials flows flow-seed flow-rate", runAdversarial},
	{"-scaling", "scaling sizes scaling-max-nodes flips seed no-verify", runScaling},
}

// run executes one command line, printing the results to w; diagnostics
// and progress go to stderr.
func run(args []string, w io.Writer) error {
	fs, o := newOptions(flag.ExitOnError)
	fs.Parse(args) // ExitOnError: a malformed flag has already exited
	m, err := o.mode()
	if err != nil {
		return err
	}
	if err := o.Reject(m.name, strings.Fields(m.reads)); err != nil {
		return err
	}
	stop, err := o.Start(newRegistry, false)
	if err != nil {
		return err
	}
	defer stop()
	res, err := m.run(o)
	if err != nil {
		return err
	}
	fmt.Fprint(w, res)
	if o.TraceFile != "" {
		if err := o.WriteTrace(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "centaur-sim: event trace: %s\n", o.TraceFile)
	}
	return nil
}

// newOptions declares every centaur-sim flag on a new flag set, bound
// into the returned options.
func newOptions(onError flag.ErrorHandling) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("centaur-sim", onError)
	c := experiments.NewCLI("centaur-sim")
	c.Loss = "0,0.05,0.1,0.2"
	s := &c.Scenario
	s.Nodes, s.LinksPerNode, s.Flips, s.MRAI, s.FlowSeed = 500, 2, 120, 30*time.Second, 42
	c.Register(fs, help)
	o := &options{CLI: c}
	fs.StringVar(&o.fig, "fig", "", "reproduce a figure: 6 | 7 | 8")
	fs.BoolVar(&o.compare, "compare", false, "run the full protocol ladder (Centaur, BGP, BGP+MRAI, BGP-RCN, OSPF) on one flip workload")
	fs.IntVar(&s.Nodes, "nodes", s.Nodes, "BRITE topology size (figures 6 and 7)")
	fs.IntVar(&s.LinksPerNode, "m", s.LinksPerNode, "BRITE attachment links per node")
	fs.IntVar(&s.Flips, "flips", s.Flips, "links flipped per measurement (0 = all)")
	fs.DurationVar(&s.MRAI, "mrai", s.MRAI, "BGP MRAI for the figure 6 headline series")
	fs.StringVar(&o.sizes, "sizes", "100,200,300,400,500,600,700,800,900,1000", "figure 8 topology sizes")
	fs.BoolVar(&s.Verify, "verify", false, "figures 6-8: invariant-check every quiesced flip state against the incremental solver oracle")
	fs.BoolVar(&o.noVerify, "no-verify", false, "scaling: skip the answer-identical check against a fresh cold solve per size")
	fs.BoolVar(&o.rel, "rel", false, "run the reliability experiment (convergence under injected faults)")
	fs.IntVar(&o.trials, "trials", 1, "reliability: trials per (protocol, loss, churn) grid point")
	fs.BoolVar(&c.Rel.NoTransport, "no-transport", false, "reliability: run protocols raw, without the reliable-transport adapter")
	fs.StringVar(&o.kinds, "adv-kinds", "leak,hijack", "adversarial: comma-separated attack kinds (leak|hijack|intercept)")
	fs.StringVar(&o.attackers, "adv-attackers", "1", "adversarial: comma-separated simultaneous attacker counts")
	fs.StringVar(&o.noise, "adv-noise", "0", "adversarial: comma-separated fractions of c2p/p2p labels flipped before the protocols see the topology")
	fs.Int64Var(&s.FlowSeed, "flow-seed", s.FlowSeed, "data plane: flow sampling seed")
	fs.Float64Var(&s.FlowRate, "flow-rate", 0, "data plane: packets per second per flow for packet-equivalent metrics (0 = 1000)")
	fs.StringVar(&o.detect, "detect-interval", "", "liveness: BFD transmit interval(s) — one duration for figures 6/7, a comma-separated sweep for -rel where 0 or oracle names the oracle point (empty = oracle detection; unlike centaur-bench -detect, the oracle point is swept only when listed)")
	fs.IntVar(&s.DetectMult, "detect-mult", 0, "liveness: detection multiplier (0 = default 3)")
	return fs, o
}

// mode returns the mode the command line selects.
func (o *options) mode() (mode, error) {
	name := "-fig " + o.fig
	switch {
	case o.Scaling:
		name = "-scaling"
	case o.rel:
		name = "-rel"
	case o.AdvOn:
		name = "-adv"
	case o.compare:
		name = "-compare"
	}
	for _, m := range modes {
		if m.name == name {
			return m, nil
		}
	}
	return mode{}, fmt.Errorf("-fig {6,7,8} is required, got %q (-h lists the flags)", o.fig)
}

// single parses -detect-interval for a figure run, which takes at most
// one detection interval (the -rel sweep form is rejected).
func (o *options) single() error {
	ds, err := parseDetects(o.detect)
	if err != nil {
		return err
	}
	if len(ds) > 1 {
		return fmt.Errorf("-detect-interval: figure modes take a single interval, got %q", o.detect)
	}
	if len(ds) == 1 {
		o.Scenario.DetectInterval = ds[0]
	}
	return nil
}

// runScaling runs the solver scaling sweep (no simulator involved). The
// -sizes default targets figure 8; unless the flag was set explicitly
// the sweep uses the standard tiers up to -scaling-max-nodes (75000
// opts into the real-AS-scale point).
func runScaling(o *options) (fmt.Stringer, error) {
	s := o.Scenario
	s.Verify = !o.noVerify
	s.Sizes = experiments.ScalingSizesUpTo(o.ScalingMax)
	if o.IsSet("sizes") {
		var err error
		if s.Sizes, err = parseSizes(o.sizes); err != nil {
			return nil, err
		}
	}
	return experiments.Scaling(s)
}

// runReliability runs the fault-injection sweep.
func runReliability(o *options) (fmt.Stringer, error) {
	cfg := o.Rel
	var err error
	if cfg.DetectIntervals, err = parseDetects(o.detect); err != nil {
		return nil, err
	}
	cfg.Trials = o.trials
	if cfg.NoTransport {
		// Raw protocols under faults usually quiesce into a wrong state
		// quickly; when one genuinely diverges, fail fast with the
		// watchdog's diagnostics instead of burning the full event budget.
		cfg.MaxEvents = 20_000_000
	}
	res, err := experiments.RunReliability(o.Scenario, cfg)
	if err != nil {
		return nil, err
	}
	return relReport{res}, nil
}

// relReport is the per-grid-point reliability table followed by the
// trials that failed (no quiescence, or a wrongly quiesced state): they
// are listed rather than aborting the sweep, since with -no-transport
// they are the expected result.
type relReport struct{ *experiments.ReliabilityResult }

func (r relReport) String() string {
	var b strings.Builder
	b.WriteString(r.ReliabilityResult.String())
	for _, s := range r.Samples {
		if s.OK() {
			continue
		}
		why := s.Diagnostic
		if s.Converged {
			why = fmt.Sprintf("%d invariant violations, e.g. %s", s.Violations, s.FirstViolation)
		}
		if r.HasDetect {
			fmt.Fprintf(&b, "  FAILED %s detect=%v loss=%.2f churn=%.1f trial=%d: %s\n", s.Protocol, s.DetectInterval, s.Loss, s.Churn, s.Trial, why)
			continue
		}
		fmt.Fprintf(&b, "  FAILED %s loss=%.2f churn=%.1f trial=%d: %s\n", s.Protocol, s.Loss, s.Churn, s.Trial, why)
	}
	return b.String()
}

// runAdversarial runs the misbehavior sweep: its containment table shows,
// for each drawn attack scenario, how far contaminated state propagated
// under BGP vs under Centaur's Permission-List structure.
func runAdversarial(o *options) (fmt.Stringer, error) {
	cfg := o.Adv
	var err error
	if cfg.Kinds, err = adversary.ParseKinds(o.kinds); err != nil {
		return nil, fmt.Errorf("-adv-kinds: %w", err)
	}
	if cfg.AttackerCounts, err = parseCounts(o.attackers); err != nil {
		return nil, fmt.Errorf("-adv-attackers: %w", err)
	}
	if cfg.NoiseFracs, err = experiments.ParseRates(o.noise); err != nil {
		return nil, fmt.Errorf("-adv-noise: %w", err)
	}
	cfg.Trials = o.trials
	return experiments.RunAdversarial(o.Scenario, cfg)
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
