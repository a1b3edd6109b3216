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
// serves from forks of one cold start; -cpuprofile/-memprofile write
// pprof profiles. -trace writes the simulator event trace of the
// dynamic steps; adding -prov upgrades it to schema v2 (causal
// provenance) and folds per-series critical-path percentiles into the
// report's "provenance" section. A flag only an opt-in step reads fails
// the run unless the step is on.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/experiments"
	"centaur/internal/forward"
	"centaur/internal/liveness"
	"centaur/internal/policy"
	"centaur/internal/telemetry"
	"centaur/internal/trace"
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
	Provenance map[string]trace.SeriesProvenance `json:"provenance,omitempty"`
}

// help is centaur-bench's text for the shared flags whose text differs
// from centaur-sim's.
var help = map[string]string{
	"seed":              "master seed",
	"trace":             "write a structured JSONL event trace of the figure 6-8 and reliability steps to this file",
	"prov":              "emit the trace with causal provenance (schema v2; requires -trace) and add per-series critical-path percentiles to the report",
	"loss":              "reliability step: comma-separated per-message loss rates",
	"dup":               "reliability step: per-message duplication probability",
	"jitter":            "reliability step: max extra per-message delivery delay",
	"churn":             "reliability step: comma-separated link-flap rates (flaps per simulated second)",
	"crashes":           "reliability step: node crash/restart cycles per trial",
	"fault-seed":        "reliability step: fault-plan seed (same seed ⇒ same faults)",
	"flows":             "user-impact step: tracked src→dst flows (quick: halved; 0 skips the step)",
	"bloom-pl":          "measure Bloom-compressed Permission Lists: adds the PL-overhead step and switches the reliability centaur series to compressed lists",
	"pl-fp-rate":        "per-filter false-positive target for -bloom-pl (0 = protocol default)",
	"adv":               "add the adversarial step: route leaks and hijacks with the invariant checker as the detector, 1000 nodes (quick: 150)",
	"adv-seed":          "adversarial step: attacker-selection and noise-relabeling seed",
	"scaling":           "add the solver scaling step: cold solve vs incremental flips at 1k/4k/16k nodes (quick: 300/600), verified answer-identical",
	"scaling-max-nodes": "scaling step: largest sweep tier (75000 adds the real-AS-scale point on the sharded table layout)",
}

func run(args []string) error {
	fs := flag.NewFlagSet("centaur-bench", flag.ExitOnError)
	c := experiments.NewCLI("centaur-bench")
	c.Loss, c.Rel.Crashes, c.Scenario.Flows = "0,0.1,0.2", 1, 64
	c.Register(fs, help)
	var (
		quick      = fs.Bool("quick", false, "run at smoke scale")
		reportPath = fs.String("report", "BENCH_report.json", "write the machine-readable report here (empty = skip)")
		detect     = fs.String("detect", "2ms,10ms,50ms", "user-impact step: comma-separated positive BFD transmit intervals; the oracle point is always swept first (unlike centaur-sim -detect-interval, 0 and oracle are rejected)")
	)
	fs.Parse(args) // ExitOnError: a malformed flag has already exited
	// The flags only an opt-in step reads, and the flag that turns the
	// step on.
	for _, o := range []struct {
		flag, step string
		on         bool
	}{
		{"pl-fp-rate", "-bloom-pl", c.Rel.BloomPL},
		{"adv-seed", "-adv", c.AdvOn},
		{"scaling-max-nodes", "-scaling", c.Scaling},
		{"detect", "-flows above 0", c.Scenario.Flows > 0},
	} {
		if !o.on && c.IsSet(o.flag) {
			return fmt.Errorf("-%s: centaur-bench without %s does not read it", o.flag, o.step)
		}
	}
	detects, err := parseDetects(*detect)
	if err != nil {
		return fmt.Errorf("-detect: %w", err)
	}
	stop, err := c.Start(telemetry.New, true)
	if err != nil {
		return err
	}
	defer stop()
	reg, tc := c.Scenario.Telemetry, c.Scenario.Trace

	sc := experiments.Scale{Nodes: 4000, Seed: c.Scenario.Seed}
	// Every simulated step runs on the shared seed, workers, telemetry
	// and trace, at its own scale.
	at := func(nodes int) experiments.Scenario {
		s := c.Scenario
		s.Nodes, s.LinksPerNode, s.Flows = nodes, 2, 0
		return s
	}
	fig := at(500)
	fig.Flips, fig.MRAI = 120, 30*time.Second
	fig8 := fig
	fig8.Sizes, fig8.Flips = []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}, 30
	rel, adv := at(150), at(1000)
	fig5Sample := 600
	if *quick {
		sc.Nodes = 600
		fig.Nodes, fig.Flips = 150, 30
		fig8.Sizes, fig8.Flips = []int{60, 120, 240, 480}, 15
		rel.Nodes, adv.Nodes = 60, 150
		fig5Sample = 150
	}
	seed, workers := c.Scenario.Seed, c.Scenario.Workers

	start := time.Now()
	report := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Nodes:      sc.Nodes,
		Seed:       seed,
		Quick:      *quick,
		Workers:    workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	fmt.Printf("Centaur reproduction report (scale: %d nodes, seed %d)\n", sc.Nodes, seed)
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
	if c.Rel.BloomPL {
		if err := step("pl overhead", func() (fmt.Stringer, error) {
			return experiments.PLOverhead(experiments.PLOverheadConfig{
				Solved: solved, FPRate: c.Rel.PLFPRate, Workers: workers,
			})
		}); err != nil {
			return err
		}
	}

	if err := step("figure 5", func() (fmt.Stringer, error) {
		return experiments.Figure5(solved[0].Name, solved[0].Sol, fig5Sample, seed)
	}); err != nil {
		return err
	}

	if err := step("figure 6", func() (fmt.Stringer, error) {
		return experiments.Figure6(fig)
	}); err != nil {
		return err
	}
	if err := step("figure 7", func() (fmt.Stringer, error) {
		return experiments.Figure7(fig)
	}); err != nil {
		return err
	}
	if err := step("figure 8", func() (fmt.Stringer, error) {
		return experiments.Figure8(fig8)
	}); err != nil {
		return err
	}

	if err := step("reliability", func() (fmt.Stringer, error) {
		return experiments.RunReliability(rel, c.Rel)
	}); err != nil {
		return err
	}

	// User impact: the same fault machinery, but measured from the data
	// plane — blackhole-seconds and loop packets integrated over tracked
	// flows, swept across failure-detection latency (oracle vs BFD-style
	// sessions at each -detect interval).
	if flows := c.Scenario.Flows; flows > 0 {
		imp, impCfg := rel, c.Rel
		imp.Flows, imp.FlowSeed = flows, 42
		if *quick {
			imp.Flows = (flows + 1) / 2
		}
		impCfg.LossRates = []float64{0, 0.1}
		impCfg.ChurnRates = []float64{0, 10}
		impCfg.DetectIntervals = append([]time.Duration{0}, detects...)
		if err := step("user impact", func() (fmt.Stringer, error) {
			return experiments.RunReliability(imp, impCfg)
		}); err != nil {
			return err
		}
	}

	// Opt-in like -bloom-pl: a run without -adv produces byte-identical
	// output (report and stdout) to builds predating the suite.
	if c.AdvOn {
		advCfg := experiments.AdversarialConfig{
			Kinds:      []adversary.Kind{adversary.Leak, adversary.Hijack},
			NoiseFracs: []float64{0, 0.02},
			AdvSeed:    c.Adv.AdvSeed,
		}
		if err := step("adversarial", func() (fmt.Stringer, error) {
			return experiments.RunAdversarial(adv, advCfg)
		}); err != nil {
			return err
		}
	}

	// Extensions beyond the paper's evaluation (DESIGN.md §6).
	if err := step("multipath extension", func() (fmt.Stringer, error) {
		return experiments.MultipathExtension(solved[0].Sol, 3, 200, seed)
	}); err != nil {
		return err
	}
	aggCfg := experiments.DefaultAggregationConfig()
	aggCfg.Seed = seed
	if *quick {
		aggCfg = experiments.AggregationConfig{Nodes: 80, Hosts: 6, Parts: []int{0, 2, 4}, Seed: seed}
	}
	if err := step("aggregation extension", func() (fmt.Stringer, error) {
		return experiments.AggregationExtension(aggCfg)
	}); err != nil {
		return err
	}

	// Opt-in: the 16k cold solve takes about a minute per pass (two with
	// verification) on top of the sweep itself.
	if c.Scaling {
		sweep := experiments.Scenario{Sizes: experiments.ScalingSizesUpTo(c.ScalingMax), Seed: seed, Verify: true}
		// -quick shrinks the sweep unless the caller explicitly asked for
		// a tier ceiling (e.g. a quick bench that still wants the 75k
		// point and nothing else slow).
		if *quick && !c.IsSet("scaling-max-nodes") {
			sweep.Sizes = []int{300, 600}
		}
		if err := step("scaling", func() (fmt.Stringer, error) {
			return experiments.Scaling(sweep)
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
		if err := c.WriteTrace(); err != nil {
			return err
		}
		fmt.Printf("event trace: %s\n", c.TraceFile)
		if c.Prov {
			rep, err := trace.Explain(bytes.NewReader(tc.Bytes()))
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
