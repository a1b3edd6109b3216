package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metricValue is one reading as the contract's result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is everything one run of one workload produced; the all-
// workloads driver collects them into a reportFile.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Seconds   int      `json:"seconds"`
	Rounds    int      `json:"rounds"`
	OpSamples int      `json:"op_samples"`
	SimDigest string   `json:"sim_digest"`
	Failures  []string `json:"failures,omitempty"`
	result
}

type machine struct {
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

type reportFile struct {
	Machine machine  `json:"machine"`
	Sizes   sizes    `json:"sizes"`
	Runs    []report `json:"runs"`
	// Claim is what the commit that recorded the file claims to have
	// gained; the commit that defines the benchmark claims nothing.
	Claim *string `json:"claim"`
}

func thisMachine() machine {
	return machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

func column(us []usage, f func(usage) float64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f(u)
	}
	return out
}

// endToEndValues computes every end-to-end metric of an untraced pass.
// live_heap_mb is read here, while p still references its networks.
func endToEndValues(p *pass) map[string]float64 {
	live := liveHeapMB() // before the rest, which keeps p in use
	return map[string]float64{
		"wall_s":       median(column(p.rounds, func(u usage) float64 { return u.wall.Seconds() })),
		"cpu_s":        median(column(p.rounds, func(u usage) float64 { return u.cpu.Seconds() })),
		"alloc_mb":     median(column(p.rounds, func(u usage) float64 { return float64(u.alloc) / 1e6 })),
		"op_p50_ms":    median(p.b.ops),
		"op_p95_ms":    quantile(p.b.ops, 0.95),
		"live_heap_mb": live,
		"setup_s":      median(p.setups),
	}
}

// perLayerValues computes every per-layer metric from the untraced and
// traced passes of a traced run and the probes taken after them.
func perLayerValues(un, tr *pass, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	t, s, b := tr.b.tr, tr.b.sim, tr.b
	unWall := un.total().wall.Seconds()

	// Counts come from the traced pass: the digest check below proves
	// they equal the untraced pass's.
	m["sim.events"] = float64(s.events)
	m["sim.messages"] = float64(s.messages)
	m["sim.route_changes"] = float64(s.routeChanges)
	m["sim.dropped"] = float64(s.dropped)
	m["sim.run_self_s"] = float64(t.runNS-t.rootNS) / 1e9
	m["sim.send_self_s"] = t.selfSeconds("sim", opSend)
	m["sim.after_self_s"] = t.selfSeconds("sim", opAfter)
	m["sim.route_changed_self_s"] = t.selfSeconds("sim", opRouteChanged)
	// Rates and costs per event come from the untraced pass's rounds.
	ur := un.b.sim
	ev := float64(ur.events)
	m["sim.ns_per_event"] = ratio(unWall*1e9, ev)
	m["sim.alloc_bytes_per_event"] = ratio(float64(un.total().alloc), ev)
	m["sim.events_per_s"] = ratio(ev, unWall)
	m["sim.delivered_msgs_per_s"] = ratio(float64(ur.messages-ur.dropped-ur.undeliverable), unWall)
	m["sim.route_changes_per_s"] = ratio(float64(ur.routeChanges), unWall)
	m["sim.wall_s_per_sim_s"] = ratio(unWall, ur.simTime.Seconds())

	for _, proto := range []string{"centaur", "bgp", "ospf"} {
		h := t.get(proto, opHandle)
		m[proto+".handle_calls"] = float64(h.calls)
		m[proto+".handle_self_s"] = float64(h.selfNS) / 1e9
		us := microseconds(h.selfLog)
		m[proto+".handle_p50_us"] = quantile(us, 0.50)
		m[proto+".handle_p99_us"] = quantile(us, 0.99)
		m[proto+".link_self_s"] = t.selfSeconds(proto, opLinkDown, opLinkUp)
		m[proto+".start_self_s"] = t.selfSeconds(proto, opStart)
		m[proto+".timer_self_s"] = t.selfSeconds(proto, opTimer)
	}
	for _, l := range []string{"transport", "liveness"} {
		m[l+".handle_self_s"] = t.selfSeconds(l, opHandle, opLinkDown, opLinkUp, opStart)
		m[l+".send_self_s"] = t.selfSeconds(l, opSend, opAfter, opRouteChanged)
		m[l+".timer_self_s"] = t.selfSeconds(l, opTimer)
	}
	c := func(name string) float64 { return float64(tr.counts[name]) }
	m["centaur.recomputes"] = c("centaur.recomputes")
	m["centaur.derivations"] = c("centaur.derivations")
	m["centaur.derive_cache_hits"] = c("centaur.derive_cache_hits")
	m["centaur.derive_cache_hit_ratio"] = ratio(c("centaur.derive_cache_hits"), c("centaur.derive_cache_hits")+c("centaur.derivations"))
	m["bgp.decisions"] = c("bgp.decisions")
	m["pgraph.derive_calls"] = c("pgraph.derive_calls")
	m["pgraph.builds"] = c("pgraph.builds")
	m["transport.retransmits"] = float64(s.retransmits)
	m["transport.dup_suppressed"] = float64(s.dupSuppressed)
	m["transport.abandoned"] = float64(s.abandoned)
	m["liveness.detections"] = c("bfd.detections")
	m["liveness.false_downs"] = c("bfd.false_downs")
	m["liveness.gated_sends"] = c("bfd.gated_sends")
	fd := t.get("faults", opDeliver)
	m["faults.deliver_calls"] = float64(fd.calls)
	m["faults.deliver_self_s"] = float64(fd.selfNS) / 1e9
	m["faults.loss_injected"] = c("faults.loss_injected")
	m["faults.flaps"] = c("faults.flaps")
	m["forward.evals"] = c("forward.evals")
	m["forward.transitions"] = c("forward.transitions")
	// The tracker runs inside the kernel's instant hook, where no span
	// can be put from outside; its cost is estimated from its count.
	m["forward.tracker_est_s"] = c("forward.evals") * float64(len(b.flows)) * m["forward.walk_ns_per_flow"] / 1e9
	m["forward.tracker_share"] = ratio(m["forward.tracker_est_s"], unWall)

	// The solver, the generators and the checkers run outside the
	// kernel; their readings cover set-up and rounds of the untraced pass.
	ub := un.b
	m["solver.cold_solve_s"] = ub.solveS
	m["solver.ns_per_dest"] = ratio(ub.solveS*1e9, float64(ub.solveDests))
	m["solver.resolve_p50_ms"] = median(ub.resolveMS)
	m["solver.resolve_dirty_p50"] = median(ub.resolveDirty)
	m["solver.table_mb"] = ub.tableMB
	m["experiments.table45_s"] = ub.table45S
	m["experiments.figure5_s"] = ub.figure5S
	m["experiments.figure5_ms_per_link"] = ratio(ub.figure5S*1e3, float64(ub.figure5Links))
	m["invariant.check_s"] = ub.checkS
	m["invariant.check_flows_s"] = ub.checkFlowsS
	m["topogen.generate_s"] = ub.topogenS

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.gc_cpu_share"] = ratio(un.gcCPU, un.total().cpu.Seconds())
	m["process.num_gc"] = float64(ms.NumGC)
	m["process.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["trace.overhead_share"] = ratio(tr.total().wall.Seconds()-unWall, unWall)
	m["trace.spans"] = float64(t.spans)
	if un.digest() == tr.digest() {
		m["trace.digest_match"] = 1
	}
	return m
}

// fill turns values into the result's metrics, one per spec, and fails
// the run on a value the contract would refuse.
func (r *report) fill(specs []metricSpec, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v := values[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failures = append(r.Failures, fmt.Sprintf("metric %s is %v", s.Name, v))
			r.Correct = false
			v = 0
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
}

// print writes the human-readable lines and, last, the result line.
func (r *report) print(w io.Writer, specs []metricSpec) error {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s, seed %d): %d rounds, %d operation samples, %d attempted, %d failed\n",
		r.Workload, mode, r.Seed, r.Rounds, r.OpSamples, r.Attempted, r.Failed)
	for _, s := range specs {
		bound := ""
		if s.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", s.Bound*100)
		}
		fmt.Fprintf(w, "  %-34s %16.6f %-6s (%s is better)%s\n", s.Name, r.Metrics[s.Name].Value, s.Unit, s.Better, bound)
	}
	fmt.Fprintf(w, "  failed_ops_share %g (%d of %d)\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	fmt.Fprintf(w, "  sim_digest %s\n", r.SimDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.Correct {
		fmt.Fprintf(w, "  OK\n")
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func spansPath(out string) string {
	return strings.TrimSuffix(out, ".json") + ".spans.jsonl"
}
