// Command centaur-bench reproduces the paper's entire evaluation
// section in one run — every table and figure, in order — and prints the
// report EXPERIMENTS.md is built from.
//
// The default scale matches the documented reproduction point (4,000
// node measured-like topologies, a 500-node BRITE prototype network);
// -quick drops to a laptop-minute smoke scale.
//
// Usage:
//
//	centaur-bench              # full reproduction (minutes)
//	centaur-bench -quick       # smoke scale (tens of seconds)
//
// Alongside the text report, a machine-readable summary (per-step wall
// clock, each figure's key statistics, and per-stage simulator times —
// cold starts vs checkpoint forks vs flip measurement) is written to
// the -report path, BENCH_report.json by default. -workers bounds the
// simulator fan-out; -trials-per-net chunks each figure series over
// fresh networks, which the converged-state checkpoint layer then
// serves from forks of one cold start (-no-checkpoint opts out);
// -cpuprofile/-memprofile write pprof profiles. -trace writes the
// simulator event trace of the dynamic steps; adding -prov upgrades it
// to schema v2 (causal provenance) and folds per-series critical-path
// percentiles into the report's "provenance" section.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

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

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "centaur-bench:", err)
		os.Exit(1)
	}
}

// benchStep is one timed entry of the machine-readable report.
type benchStep struct {
	Name    string         `json:"name"`
	Seconds float64        `json:"seconds"`
	Stats   map[string]any `json:"stats,omitempty"`
}

// benchReport is the BENCH_report.json schema.
type benchReport struct {
	Generated    string      `json:"generated"`
	Nodes        int         `json:"nodes"`
	Seed         int64       `json:"seed"`
	Quick        bool        `json:"quick"`
	Workers      int         `json:"workers"`
	GoMaxProcs   int         `json:"gomaxprocs"`
	Steps        []benchStep `json:"steps"`
	TotalSeconds float64     `json:"total_seconds"`
	// ColdStartsAvoided counts trial chunks served by forking a shared
	// converged checkpoint instead of cold-starting a fresh network
	// (the run-wide sim.forks counter).
	ColdStartsAvoided int64 `json:"cold_starts_avoided"`
	// Telemetry is the end-of-run registry snapshot: protocol and
	// simulator counters, the heap high-water gauge, and per-series
	// message-kind counts and convergence-time distributions.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
	// Provenance holds per-series critical-path percentiles (causal
	// depth and root-to-last-route-change latency) derived from the
	// -prov trace. Only present with -trace -prov, so a default run's
	// report stays byte-identical to builds predating the option.
	Provenance map[string]telemetry.SeriesProvenance `json:"provenance,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("centaur-bench", flag.ExitOnError)
	var (
		quick      = fs.Bool("quick", false, "run at smoke scale")
		seed       = fs.Int64("seed", 1, "master seed")
		workers    = fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
		trialsPer  = fs.Int("trials-per-net", 0, "flip trials per fresh network; 0 = one shared network per series (historical semantics)")
		noCheckpt  = fs.Bool("no-checkpoint", false, "disable converged-state checkpointing; cold-start every trial chunk")
		reportPath = fs.String("report", "BENCH_report.json", "write the machine-readable report here (empty = skip)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		debugAddr  = fs.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		progress   = fs.Duration("progress", 0, "print a progress line to stderr at this interval (0 = off)")
		traceFile  = fs.String("trace", "", "write a structured JSONL event trace of the figure 6-8 and reliability steps to this file")
		prov       = fs.Bool("prov", false, "emit the trace with causal provenance (schema v2; requires -trace) and add per-series critical-path percentiles to the report")

		loss       = fs.String("loss", "0,0.1,0.2", "reliability step: comma-separated per-message loss rates")
		dup        = fs.Float64("dup", 0, "reliability step: per-message duplication probability")
		jitter     = fs.Duration("jitter", 0, "reliability step: max extra per-message delivery delay")
		churn      = fs.String("churn", "0,10", "reliability step: comma-separated link-flap rates (flaps per simulated second)")
		crashes    = fs.Int("crashes", 1, "reliability step: node crash/restart cycles per trial")
		faultSeed  = fs.Int64("fault-seed", 10_000, "reliability step: fault-plan seed (same seed ⇒ same faults)")
		flows      = fs.Int("flows", 64, "user-impact step: tracked src→dst flows (quick: halved; 0 skips the step)")
		detect     = fs.String("detect", "2ms,10ms,50ms", "user-impact step: comma-separated BFD detection transmit intervals swept against the oracle point")
		bloomPL    = fs.Bool("bloom-pl", false, "measure Bloom-compressed Permission Lists: adds the PL-overhead step and switches the reliability centaur series to compressed lists")
		plFPRate   = fs.Float64("pl-fp-rate", 0, "per-filter false-positive target for -bloom-pl (0 = protocol default)")
		advStep    = fs.Bool("adv", false, "add the adversarial step: route leaks and hijacks with the invariant checker as the detector, 1000 nodes (quick: 150)")
		advSeed    = fs.Int64("adv-seed", 40_000, "adversarial step: attacker-selection and noise-relabeling seed")
		scaling    = fs.Bool("scaling", false, "add the solver scaling step: cold solve vs incremental flips at 1k/4k/16k nodes (quick: 300/600), verified answer-identical")
		scalingMax = fs.Int("scaling-max-nodes", 16000, "scaling step: largest sweep tier (75000 adds the real-AS-scale point on the sharded table layout)")
	)
	fs.Parse(args) // ExitOnError: a malformed flag has already exited
	// The steps read a count below one as "all" or "the default", so a
	// slip like -workers -3 would silently run at full width.
	for _, c := range []struct {
		name string
		v    int
	}{
		{"workers", *workers}, {"trials-per-net", *trialsPer}, {"crashes", *crashes},
		{"flows", *flows}, {"scaling-max-nodes", *scalingMax},
	} {
		if c.v < 0 {
			return fmt.Errorf("-%s %d: a count cannot be negative", c.name, c.v)
		}
	}
	if *prov && *traceFile == "" {
		return fmt.Errorf("-prov requires -trace (provenance rides on the event trace)")
	}

	stop, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	defer stop()

	// The bench always collects telemetry: its snapshot is part of the
	// machine-readable report.
	reg := telemetry.New()
	bgp.SetTelemetry(reg)
	ospf.SetTelemetry(reg)
	centaur.SetTelemetry(reg)
	pgraph.SetTelemetry(reg)
	solver.SetTelemetry(reg)
	forward.SetTelemetry(reg)
	liveness.SetTelemetry(reg)
	if *debugAddr != "" {
		addr, stopDebug, err := telemetry.ServeDebug(*debugAddr, reg)
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "centaur-bench: debug endpoint at http://%s/debug/vars\n", addr)
	}
	if *progress > 0 {
		stopProgress := experiments.StartProgress(os.Stderr, *progress, reg)
		defer stopProgress()
	}

	sc := experiments.Scale{Nodes: 4000, Seed: *seed}
	fig6 := experiments.DefaultFigure6Config()
	fig7 := experiments.DefaultFigure7Config()
	fig8 := experiments.DefaultFigure8Config()
	fig5Sample := 600
	if *quick {
		sc.Nodes = 600
		fig6 = experiments.Figure6Config{Nodes: 150, LinksPerNode: 2, Flips: 30, Seed: *seed, MRAI: 30 * time.Second}
		fig7 = experiments.Figure7Config{Nodes: 150, LinksPerNode: 2, Flips: 30, Seed: *seed}
		fig8 = experiments.Figure8Config{Sizes: []int{60, 120, 240, 480}, LinksPerNode: 2, FlipsPerSize: 15, Seed: *seed}
		fig5Sample = 150
	}
	fig6.Seed, fig7.Seed, fig8.Seed = *seed, *seed, *seed
	fig6.Workers, fig7.Workers, fig8.Workers = *workers, *workers, *workers
	fig6.TrialsPerNetwork, fig7.TrialsPerNetwork, fig8.TrialsPerNetwork = *trialsPer, *trialsPer, *trialsPer
	fig6.NoCheckpoint, fig7.NoCheckpoint, fig8.NoCheckpoint = *noCheckpt, *noCheckpt, *noCheckpt
	fig6.Telemetry, fig7.Telemetry, fig8.Telemetry = reg, reg, reg

	// Opt-in like -bloom-pl: without -trace the report and stdout stay
	// byte-identical to builds predating the option.
	var tc *telemetry.TraceCollector
	if *traceFile != "" {
		if *prov {
			tc = telemetry.NewTraceCollectorV2()
		} else {
			tc = telemetry.NewTraceCollector()
		}
		fig6.Trace, fig7.Trace, fig8.Trace = tc, tc, tc
	}

	start := time.Now()
	report := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Nodes:      sc.Nodes,
		Seed:       *seed,
		Quick:      *quick,
		Workers:    *workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("Centaur reproduction report (scale: %d nodes, seed %d)\n", sc.Nodes, *seed)
	fmt.Printf("generated: %s\n\n", report.Generated)

	step := func(name string, f func() (fmt.Stringer, error)) error {
		cold0, fork0, flips0 := experiments.StageTimings()
		t0 := time.Now()
		res, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		took := time.Since(t0)
		fmt.Print(res)
		fmt.Printf("[%s took %v]\n\n", name, took.Round(time.Millisecond))
		cold1, fork1, flips1 := experiments.StageTimings()
		stats := keyStats(res)
		if stages := stageStats(cold1-cold0, fork1-fork0, flips1-flips0); stages != nil {
			if stats == nil {
				stats = map[string]any{}
			}
			stats["stage_seconds"] = stages
		}
		report.Steps = append(report.Steps, benchStep{
			Name: name, Seconds: took.Seconds(), Stats: stats,
		})
		return nil
	}

	t0 := time.Now()
	t3, err := experiments.Table3(sc)
	if err != nil {
		return err
	}
	report.Steps = append(report.Steps, benchStep{Name: "table 3", Seconds: time.Since(t0).Seconds()})
	fmt.Print(t3)
	fmt.Println()

	// Solve each measured-like topology exactly once; every static stage
	// downstream (tables 4-5, PL overhead, figure 5, multipath) reads the
	// same solutions instead of cold-solving its own copy.
	t0 = time.Now()
	solved, err := experiments.SolveTable3(t3, policy.TieOverride)
	if err != nil {
		return err
	}
	report.Steps = append(report.Steps, benchStep{Name: "solve", Seconds: time.Since(t0).Seconds()})
	fmt.Printf("[solved %d topologies once for all static stages; took %v]\n\n",
		len(solved), time.Since(t0).Round(time.Millisecond))

	if err := step("tables 4-5", func() (fmt.Stringer, error) {
		return experiments.Table4And5From(solved)
	}); err != nil {
		return err
	}

	// Opt-in so a run without -bloom-pl produces byte-identical output
	// (report and stdout) to builds predating the option.
	if *bloomPL {
		if err := step("pl overhead", func() (fmt.Stringer, error) {
			return experiments.PLOverhead(experiments.PLOverheadConfig{
				Solved: solved, FPRate: *plFPRate, Workers: *workers,
			})
		}); err != nil {
			return err
		}
	}

	if err := step("figure 5", func() (fmt.Stringer, error) {
		return experiments.Figure5(solved[0].Name, solved[0].Sol, fig5Sample, *seed)
	}); err != nil {
		return err
	}

	if err := step("figure 6", func() (fmt.Stringer, error) {
		return experiments.Figure6(fig6)
	}); err != nil {
		return err
	}
	if err := step("figure 7", func() (fmt.Stringer, error) {
		return experiments.Figure7(fig7)
	}); err != nil {
		return err
	}
	if err := step("figure 8", func() (fmt.Stringer, error) {
		return experiments.Figure8(fig8)
	}); err != nil {
		return err
	}

	relCfg := experiments.DefaultReliabilityConfig()
	if *quick {
		relCfg.Nodes = 60
	}
	lossRates, err := parseRates(*loss)
	if err != nil {
		return fmt.Errorf("-loss: %w", err)
	}
	churnRates, err := parseRates(*churn)
	if err != nil {
		return fmt.Errorf("-churn: %w", err)
	}
	relCfg.LossRates, relCfg.ChurnRates = lossRates, churnRates
	relCfg.Dup, relCfg.Jitter, relCfg.Crashes = *dup, *jitter, *crashes
	relCfg.Seed, relCfg.FaultSeed = *seed, *faultSeed
	relCfg.BloomPL, relCfg.PLFPRate = *bloomPL, *plFPRate
	relCfg.Workers, relCfg.Telemetry = *workers, reg
	relCfg.Trace = tc
	if err := step("reliability", func() (fmt.Stringer, error) {
		return experiments.RunReliability(relCfg)
	}); err != nil {
		return err
	}

	// User impact: the same fault machinery, but measured from the data
	// plane — blackhole-seconds and loop packets integrated over tracked
	// flows, swept across failure-detection latency (oracle vs BFD-style
	// sessions at each -detect interval).
	if *flows > 0 {
		detects, err := parseDetects(*detect)
		if err != nil {
			return fmt.Errorf("-detect: %w", err)
		}
		impCfg := relCfg
		impCfg.LossRates = []float64{0, 0.1}
		impCfg.ChurnRates = []float64{0, 10}
		impCfg.Flows, impCfg.FlowSeed = *flows, 42
		if *quick {
			impCfg.Flows = (*flows + 1) / 2
		}
		impCfg.DetectIntervals = append([]time.Duration{0}, detects...)
		if err := step("user impact", func() (fmt.Stringer, error) {
			return experiments.RunReliability(impCfg)
		}); err != nil {
			return err
		}
	}

	// Opt-in like -bloom-pl: a run without -adv produces byte-identical
	// output (report and stdout) to builds predating the suite.
	if *advStep {
		advCfg := experiments.DefaultAdversarialConfig()
		advCfg.Nodes = 1000
		if *quick {
			advCfg.Nodes = 150
		}
		advCfg.Seed, advCfg.AdvSeed = *seed, *advSeed
		advCfg.Workers, advCfg.Telemetry, advCfg.Trace = *workers, reg, tc
		if err := step("adversarial", func() (fmt.Stringer, error) {
			return experiments.RunAdversarial(advCfg)
		}); err != nil {
			return err
		}
	}

	// Extensions beyond the paper's evaluation (DESIGN.md §6).
	if err := step("multipath extension", func() (fmt.Stringer, error) {
		return experiments.MultipathExtension(solved[0].Sol, 3, 200, *seed)
	}); err != nil {
		return err
	}
	aggCfg := experiments.DefaultAggregationConfig()
	aggCfg.Seed = *seed
	if *quick {
		aggCfg = experiments.AggregationConfig{Nodes: 80, Hosts: 6, Parts: []int{0, 2, 4}, Seed: *seed}
	}
	if err := step("aggregation extension", func() (fmt.Stringer, error) {
		return experiments.AggregationExtension(aggCfg)
	}); err != nil {
		return err
	}

	// Opt-in: the 16k cold solve takes about a minute per pass (two with
	// verification) on top of the sweep itself.
	if *scaling {
		scCfg := experiments.ScalingConfig{
			Sizes: experiments.ScalingSizesUpTo(*scalingMax),
			Seed:  *seed, TieBreak: policy.TieHashed, Verify: true,
		}
		scalingMaxSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "scaling-max-nodes" {
				scalingMaxSet = true
			}
		})
		// -quick shrinks the sweep unless the caller explicitly asked for
		// a tier ceiling (e.g. a quick bench that still wants the 75k
		// point and nothing else slow).
		if *quick && !scalingMaxSet {
			scCfg.Sizes = []int{300, 600}
		}
		if err := step("scaling", func() (fmt.Stringer, error) {
			return experiments.Scaling(scCfg)
		}); err != nil {
			return err
		}
	}

	report.TotalSeconds = time.Since(start).Seconds()
	report.ColdStartsAvoided = reg.Counter("sim.forks").Value()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Gauge("heap.max_bytes").SetMax(int64(ms.HeapAlloc))
	report.Telemetry = reg.Snapshot()
	if tc != nil {
		if err := os.WriteFile(*traceFile, tc.Bytes(), 0o644); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		fmt.Printf("event trace: %s\n", *traceFile)
		if *prov {
			rep, err := telemetry.Explain(bytes.NewReader(tc.Bytes()))
			if err != nil {
				return fmt.Errorf("-prov: %w", err)
			}
			report.Provenance = rep.SeriesSummary()
		}
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
	if *reportPath != "" {
		if err := writeReport(*reportPath, report); err != nil {
			return err
		}
		fmt.Printf("machine-readable report: %s\n", *reportPath)
	}
	return nil
}

// keyStats pulls the headline numbers out of a figure result for the
// JSON report; non-figure steps report timing only.
func keyStats(res fmt.Stringer) map[string]any {
	switch r := res.(type) {
	case *experiments.Figure6Result:
		return map[string]any{
			"centaur_median_ms":           num(r.Centaur.Median()),
			"centaur_p90_ms":              num(r.Centaur.Percentile(90)),
			"bgp_mrai_median_ms":          num(r.BGP.Median()),
			"bgp_nomrai_median_ms":        num(r.BGPNoMRAI.Median()),
			"fraction_centaur_faster":     r.FractionCentaurFaster,
			"fraction_centaur_not_slower": r.FractionCentaurNotSlower,
		}
	case *experiments.Figure7Result:
		return map[string]any{
			"centaur_mean_units":     num(r.Centaur.Mean()),
			"ospf_mean_units":        num(r.OSPF.Mean()),
			"centaur_mean_msgs":      num(r.CentaurMsgs.Mean()),
			"ospf_mean_msgs":         num(r.OSPFMsgs.Mean()),
			"centaur_mean_bytes":     num(r.CentaurBytes.Mean()),
			"ospf_mean_bytes":        num(r.OSPFBytes.Mean()),
			"fraction_centaur_fewer": r.FractionCentaurFewer,
		}
	case *experiments.Figure8Result:
		points := make([]map[string]any, 0, len(r.Points))
		for _, p := range r.Points {
			points = append(points, map[string]any{
				"nodes":         p.Nodes,
				"centaur_units": p.CentaurUnits,
				"bgp_units":     p.BGPUnits,
				"centaur_msgs":  p.CentaurMsgs,
				"bgp_msgs":      p.BGPMsgs,
				"centaur_bytes": p.CentaurBytes,
				"bgp_bytes":     p.BGPBytes,
			})
		}
		return map[string]any{"points": points}
	case *experiments.ScalingResult:
		points := make([]map[string]any, 0, len(r.Points))
		for _, p := range r.Points {
			points = append(points, map[string]any{
				"nodes":           p.Nodes,
				"links":           p.Links,
				"layout":          p.Layout,
				"table_mb":        p.TableMB,
				"cold_solve_ms":   p.ColdSolveMS,
				"cold_alloc_mb":   p.ColdAllocMB,
				"index_ms":        p.IndexMS,
				"index_mb":        p.IndexMB,
				"fail_us_mean":    p.FailMeanUS,
				"fail_us_p95":     p.FailP95US,
				"restore_us_mean": p.RestoreMeanUS,
				"restore_us_p95":  p.RestoreP95US,
				"flip_alloc_kb":   p.FlipAllocKB,
				"mean_dirty":      p.MeanDirty,
				"speedup":         p.Speedup,
				"verified":        p.Verified,
			})
		}
		return map[string]any{"points": points}
	case *experiments.PLOverheadResult:
		rows := make([]map[string]any, 0, len(r.Rows))
		for _, row := range r.Rows {
			rows = append(rows, map[string]any{
				"name":             row.Name,
				"lists":            row.Lists,
				"compressed_lists": row.CompressedLists,
				"groups":           row.Groups,
				"bloom_groups":     row.BloomGroups,
				"explicit_bytes":   row.ExplicitBytes,
				"compressed_bytes": row.CompressedBytes,
				"fp_probes":        row.Probes,
				"fp_hits":          row.FPHits,
			})
		}
		return map[string]any{"fp_rate": r.FPRate, "rows": rows}
	case *experiments.AdversarialResult:
		rows := make([]map[string]any, 0, len(r.Samples))
		for _, s := range r.Samples {
			row := map[string]any{
				"series":             s.Protocol,
				"kind":               s.Kind,
				"attackers":          s.Attackers,
				"noise":              s.Noise,
				"trial":              s.Trial,
				"honest":             s.Honest,
				"ever_contaminated":  s.EverContaminated,
				"final_contaminated": s.FinalContaminated,
				"ever_fraction":      num(s.EverFraction),
				"final_fraction":     num(s.FinalFraction),
				"radius":             s.Radius,
				"injected_units":     s.InjectedUnits,
			}
			if len(s.StructuralDenials) > 0 {
				row["structural_denials"] = s.StructuralDenials
			}
			if s.UnexplainedViolations > 0 {
				row["unexplained_violations"] = s.UnexplainedViolations
			}
			rows = append(rows, row)
		}
		return map[string]any{"scenarios": rows}
	case *experiments.ReliabilityResult:
		okTrials := 0
		var delivery float64
		var rexmit int64
		for _, s := range r.Samples {
			if s.OK() {
				okTrials++
			}
			delivery += s.DeliverySuccess
			rexmit += s.Retransmits
		}
		if len(r.Samples) == 0 {
			return nil
		}
		stats := map[string]any{
			"trials_ok":             okTrials,
			"trials":                len(r.Samples),
			"mean_delivery_success": delivery / float64(len(r.Samples)),
			"retransmits":           rexmit,
		}
		if r.HasImpact {
			stats["impact"] = impactStats(r)
		}
		return stats
	}
	return nil
}

// impactStats aggregates the data-plane and detection accounting per
// (protocol, detection interval) for the JSON report, in first-seen
// (grid) order.
func impactStats(r *experiments.ReliabilityResult) []map[string]any {
	type key struct {
		proto  string
		detect time.Duration
	}
	type agg struct {
		imp forward.Impact
		bfd liveness.SessionStats
	}
	var order []key
	byKey := make(map[key]*agg)
	for _, s := range r.Samples {
		k := key{s.Protocol, s.DetectInterval}
		a := byKey[k]
		if a == nil {
			a = &agg{}
			byKey[k] = a
			order = append(order, k)
		}
		a.imp.Add(s.Impact)
		a.bfd.Add(s.BFD)
	}
	rows := make([]map[string]any, 0, len(order))
	for _, k := range order {
		a := byKey[k]
		row := map[string]any{
			"series":            k.proto,
			"detect_ms":         num(float64(k.detect) / float64(time.Millisecond)),
			"blackhole_seconds": num(a.imp.BlackholeSec),
			"loop_packets":      num(a.imp.LoopPackets),
			"valley_deliveries": num(a.imp.ValleyDeliveries),
			"stuck_flows":       a.imp.FinalBlackholed + a.imp.FinalLooping,
		}
		if k.detect > 0 {
			row["detections"] = a.bfd.Detections
			row["mean_detect_ms"] = num(float64(a.bfd.MeanDetect()) / float64(time.Millisecond))
			row["false_downs"] = a.bfd.FalseDowns
		}
		rows = append(rows, row)
	}
	return rows
}

// parseDetects parses a comma-separated list of positive BFD transmit
// intervals.
func parseDetects(s string) ([]time.Duration, error) {
	var out []time.Duration
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		d, err := time.ParseDuration(tok)
		if err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("interval %q must be positive (the oracle point is always included)", tok)
		}
		out = append(out, d)
	}
	return out, nil
}

// parseRates parses a comma-separated list of nonnegative rates.
func parseRates(s string) ([]float64, error) {
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

// stageStats renders a step's simulator-stage wall-time deltas
// (cumulative across workers, so the stages can sum past the step's
// elapsed time). Steps that never enter the simulator report none.
func stageStats(cold, fork, flips time.Duration) map[string]any {
	if cold == 0 && fork == 0 && flips == 0 {
		return nil
	}
	return map[string]any{
		"cold_start": cold.Seconds(),
		"fork":       fork.Seconds(),
		"flips":      flips.Seconds(),
	}
}

// num shields the JSON report from the NaN an empty distribution
// summarizes to (json.Marshal rejects NaN); an absent statistic becomes
// null.
func num(v float64) any {
	if math.IsNaN(v) {
		return nil
	}
	return v
}

// writeReport marshals the report with stable indentation.
func writeReport(path string, r benchReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// startProfiles starts CPU profiling and arranges a heap snapshot; the
// returned stop function finishes both and is safe to call once.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "centaur-bench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "centaur-bench: -memprofile:", err)
			}
		}
	}, nil
}
