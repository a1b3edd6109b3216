package main

import "time"

// metricSpec names one metric. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; spec_test.go
// keeps the two in step.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// runSeconds is BENCHMARK.json's run_seconds: how long the measured
// phase of one untraced run lasts.
const runSeconds = 15

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupRepeats = 3

// endToEnd metrics are reported by every workload of an untraced run.
// A round is the workload's fixed batch of work (see sizes); an
// operation is its unit of latency (see workloads). The recording
// machine is a shared two-processor VM on which host time alone spreads
// one seed's timings by 4 to 15 per cent between runs, so the timing
// bounds sit at the contract's ceiling; allocation and live heap repeat
// to within 0.1 per cent and carry the tight bounds.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0.25},        // median wall time of one round, oracle checks excluded
	{"cpu_s", "s", "lower", 0.25},         // median user+system CPU of one round
	{"op_p50_ms", "ms", "lower", 0.25},    // median wall time of one operation
	{"op_p95_ms", "ms", "lower", 0.25},    // nearest-rank 95th percentile of the same samples
	{"alloc_mb", "MB", "lower", 0.02},     // median bytes allocated in one round
	{"live_heap_mb", "MB", "lower", 0.05}, // heap surviving a forced GC after the last round
	{"setup_s", "s", "lower", 0.25},       // median of setupRepeats set-ups
}

// perLayer metrics are reported by every workload of a traced run; a
// layer the workload does not execute reads 0.
var perLayer = []metricSpec{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.messages", Unit: "count", Better: "lower"},
	{Name: "sim.route_changes", Unit: "count", Better: "lower"},
	{Name: "sim.dropped", Unit: "count", Better: "lower"},
	{Name: "sim.run_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.send_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.after_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.route_changed_self_s", Unit: "s", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.delivered_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.route_changes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.wall_s_per_sim_s", Unit: "ratio", Better: "lower"},
	{Name: "sim.fork_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.checkpoint_mb", Unit: "MB", Better: "lower"},

	{Name: "centaur.handle_calls", Unit: "count", Better: "lower"},
	{Name: "centaur.handle_self_s", Unit: "s", Better: "lower"},
	{Name: "centaur.handle_p50_us", Unit: "us", Better: "lower"},
	{Name: "centaur.handle_p99_us", Unit: "us", Better: "lower"},
	{Name: "centaur.link_self_s", Unit: "s", Better: "lower"},
	{Name: "centaur.start_self_s", Unit: "s", Better: "lower"},
	{Name: "centaur.timer_self_s", Unit: "s", Better: "lower"},
	{Name: "centaur.recomputes", Unit: "count", Better: "lower"},
	{Name: "centaur.derivations", Unit: "count", Better: "lower"},
	{Name: "centaur.derive_cache_hits", Unit: "count", Better: "higher"},
	{Name: "centaur.derive_cache_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "bgp.handle_calls", Unit: "count", Better: "lower"},
	{Name: "bgp.handle_self_s", Unit: "s", Better: "lower"},
	{Name: "bgp.handle_p50_us", Unit: "us", Better: "lower"},
	{Name: "bgp.handle_p99_us", Unit: "us", Better: "lower"},
	{Name: "bgp.link_self_s", Unit: "s", Better: "lower"},
	{Name: "bgp.decisions", Unit: "count", Better: "lower"},
	{Name: "ospf.handle_calls", Unit: "count", Better: "lower"},
	{Name: "ospf.handle_self_s", Unit: "s", Better: "lower"},
	{Name: "ospf.handle_p99_us", Unit: "us", Better: "lower"},
	{Name: "ospf.link_self_s", Unit: "s", Better: "lower"},

	{Name: "pgraph.derive_ns_per_dest", Unit: "ns", Better: "lower"},
	{Name: "pgraph.derive_all_ns_per_dest", Unit: "ns", Better: "lower"},
	{Name: "pgraph.build_ns_per_path", Unit: "ns", Better: "lower"},
	{Name: "pgraph.diff_ns_per_link", Unit: "ns", Better: "lower"},
	{Name: "pgraph.clone_ns_per_link", Unit: "ns", Better: "lower"},
	{Name: "pgraph.permit_ns_per_probe", Unit: "ns", Better: "lower"},
	{Name: "pgraph.links_per_graph_p50", Unit: "count", Better: "lower"},
	{Name: "pgraph.derive_calls", Unit: "count", Better: "lower"},
	{Name: "pgraph.builds", Unit: "count", Better: "lower"},

	{Name: "solver.cold_solve_s", Unit: "s", Better: "lower"},
	{Name: "solver.ns_per_dest", Unit: "ns", Better: "lower"},
	{Name: "solver.resolve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.resolve_dirty_p50", Unit: "count", Better: "lower"},
	{Name: "solver.table_mb", Unit: "MB", Better: "lower"},

	{Name: "experiments.table45_s", Unit: "s", Better: "lower"},
	{Name: "experiments.figure5_s", Unit: "s", Better: "lower"},
	{Name: "experiments.figure5_ms_per_link", Unit: "ms", Better: "lower"},

	{Name: "wire.size_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_msg_p50", Unit: "B", Better: "lower"},

	{Name: "transport.handle_self_s", Unit: "s", Better: "lower"},
	{Name: "transport.send_self_s", Unit: "s", Better: "lower"},
	{Name: "transport.timer_self_s", Unit: "s", Better: "lower"},
	{Name: "transport.retransmits", Unit: "count", Better: "lower"},
	{Name: "transport.dup_suppressed", Unit: "count", Better: "lower"},
	{Name: "transport.abandoned", Unit: "count", Better: "lower"},

	{Name: "liveness.handle_self_s", Unit: "s", Better: "lower"},
	{Name: "liveness.send_self_s", Unit: "s", Better: "lower"},
	{Name: "liveness.timer_self_s", Unit: "s", Better: "lower"},
	{Name: "liveness.detections", Unit: "count", Better: "lower"},
	{Name: "liveness.false_downs", Unit: "count", Better: "lower"},
	{Name: "liveness.gated_sends", Unit: "count", Better: "lower"},

	{Name: "faults.deliver_calls", Unit: "count", Better: "lower"},
	{Name: "faults.deliver_self_s", Unit: "s", Better: "lower"},
	{Name: "faults.loss_injected", Unit: "count", Better: "lower"},
	{Name: "faults.flaps", Unit: "count", Better: "lower"},

	{Name: "forward.walk_ns_per_flow", Unit: "ns", Better: "lower"},
	{Name: "forward.evals", Unit: "count", Better: "lower"},
	{Name: "forward.transitions", Unit: "count", Better: "lower"},
	{Name: "forward.tracker_est_s", Unit: "s", Better: "lower"},
	{Name: "forward.tracker_share", Unit: "ratio", Better: "lower"},

	{Name: "invariant.check_s", Unit: "s", Better: "lower"},
	{Name: "invariant.check_flows_s", Unit: "s", Better: "lower"},
	{Name: "topogen.generate_s", Unit: "s", Better: "lower"},

	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "process.num_gc", Unit: "cycles", Better: "lower"},
	{Name: "process.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},
	{Name: "trace.digest_match", Unit: "count", Better: "higher"},
}

// sizes are the input constants of the five workloads. They are fixed,
// not flags: a number measured at one size says nothing at another.
//
// InputSeed, not the run's -seed, generates the topologies, the link
// delays, the tracked flows, the re-solved links and Figure 5's link
// sample. Measured on this repository: from one generated graph or one
// delay assignment to the next, the cost of the same workload moves by
// 5 to 12 per cent, which would hide every change smaller than that;
// with these inputs fixed, two runs allocate the same bytes to within
// 0.01 per cent. The run's -seed decides the order in which the fixed
// inputs are visited: the order of a round's cold starts, link flips and
// re-solves.
type sizes struct {
	InputSeed int64

	ColdstartNodes  int // BRITE-like, m=2
	ColdstartDelays int // a round cold-starts once under each of this many delay seeds
	FlipsNodes      int // BRITE-like, m=2; a round fails and restores every link once
	FlipsCheckStep  int // round 0 checks every FlipsCheckStep-th episode against the oracle
	BaselineNodes   int // CAIDA-like; a round flips every link once under BGP, then under OSPF
	ChurnNodes      int // BRITE-like, m=2
	ChurnFlows      int
	ChurnPlan       churnPlan
	StaticNodes     int // CAIDA-like and HeTop-like
	StaticFlips     int // links removed, re-solved, restored and re-solved per topology and round
	StaticLinks     int // links Figure 5 samples per topology
}

type churnPlan struct {
	Loss       float64
	FlapsPerS  float64
	FlapDown   time.Duration // must exceed liveness detection (3 x TxInterval) or every flap is absorbed
	Window     time.Duration
	TxInterval time.Duration
}

var fullSizes = sizes{
	InputSeed:       7,
	ColdstartNodes:  160,
	ColdstartDelays: 3,
	FlipsNodes:      120,
	FlipsCheckStep:  25,
	BaselineNodes:   250,
	ChurnNodes:      150,
	ChurnFlows:      8,
	ChurnPlan: churnPlan{Loss: 0.01, FlapsPerS: 20, FlapDown: 200 * time.Millisecond,
		Window: time.Second, TxInterval: 10 * time.Millisecond},
	StaticNodes: 300,
	StaticFlips: 10,
	StaticLinks: 30,
}

// size is what the workloads read; the smoke test swaps in a tiny set.
var size = fullSizes

type workloadSpec struct {
	Name string
	Why  string
	New  func() workload
}

var workloads = []workloadSpec{
	{"coldstart", "Centaur cold start to quiescence: bulk deltas on a cold derive cache, the paper's initialization phase and Figure 8's cost",
		func() workload { return &coldstart{} }},
	{"flips", "every link failed and restored on a converged Centaur network: the steady-phase incremental path with a warm derive cache",
		func() workload { return &flips{} }},
	{"baseline", "the same link flips under BGP and OSPF: runs no centaur or pgraph code, so it predicts no change for Centaur work and leans on the sim kernel",
		func() workload { return &baseline{} }},
	{"churn", "open-loop flap stream with loss through faults, liveness, reliable transport and a flow tracker, one Centaur and one BGP leg: the only user of those layers",
		func() workload { return &churn{} }},
	{"static", "solver and bulk pgraph with no simulator: cold solves, incremental re-solves, tables 4-5 and Figure 5 on CAIDA-like and HeTop-like graphs",
		func() workload { return &static{} }},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
