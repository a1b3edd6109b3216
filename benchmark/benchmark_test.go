package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySizes keeps the whole smoke suite to a few seconds.
var tinySizes = sizes{
	InputSeed:       7,
	ColdstartNodes:  40,
	ColdstartDelays: 2,
	FlipsNodes:      30,
	FlipsCheckStep:  10,
	BaselineNodes:   40,
	ChurnNodes:      40,
	ChurnFlows:      4,
	ChurnPlan: churnPlan{Loss: 0.01, FlapsPerS: 20, FlapDown: 200 * time.Millisecond,
		Window: 300 * time.Millisecond, TxInterval: 10 * time.Millisecond},
	StaticNodes: 40,
	StaticFlips: 3,
	StaticLinks: 10,
}

func useTinySizes(t *testing.T) {
	old := size
	size = tinySizes
	t.Cleanup(func() { size = old })
}

func mustRun(t *testing.T, w *workloadSpec, traced bool, out string) *report {
	t.Helper()
	r, err := runOne(w, 3, 0, traced, out)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("%s (traced=%v): correct=%v attempted=%d failed=%d: %v", w.Name, traced, r.Correct, r.Attempted, r.Failed, r.Failures)
	}
	return r
}

// benchmarkJSON mirrors the contract's shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and the program's
// own metric and workload tables in step, inside the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program measures for %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, program has %q / %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(s metricSpec) {
		if !nameRE.MatchString(s.Name) || !unitRE.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("metric %+v is outside the contract's limits", s)
		}
		if seen[s.Name] {
			t.Errorf("metric name %s used twice", s.Name)
		}
		seen[s.Name] = true
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, s := range endToEnd {
		check(s)
		if got := bj.EndToEnd[i]; got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better || got.Bound != s.Bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, got, s)
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(perLayer))
	}
	for i, s := range perLayer {
		check(s)
		if got := bj.PerLayer[i]; got.Name != s.Name || got.Unit != s.Unit || got.Better != s.Better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, got, s)
		}
	}
}

// TestSmoke runs every workload untraced and traced at tiny scale: each
// emits every metric of its mode exactly once with a finite value, the
// two modes agree on the digest, and a seed repeats exactly.
func TestSmoke(t *testing.T) {
	useTinySizes(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			un := mustRun(t, w, false, "")
			tr := mustRun(t, w, true, "")
			for _, c := range []struct {
				r     *report
				specs []metricSpec
			}{{un, endToEnd}, {tr, perLayer}} {
				if len(c.r.Metrics) != len(c.specs) {
					t.Errorf("%d metrics emitted, want %d", len(c.r.Metrics), len(c.specs))
				}
				for _, s := range c.specs {
					v, ok := c.r.Metrics[s.Name]
					if !ok || v.Unit != s.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s = %+v (present %v)", s.Name, v, ok)
					}
				}
			}
			for _, s := range endToEnd {
				if un.Metrics[s.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", s.Name, un.Metrics[s.Name].Value)
				}
			}
			if tr.Metrics["trace.digest_match"].Value != 1 {
				t.Error("traced and untraced passes disagree on the digest")
			}
			if un.SimDigest != tr.SimDigest {
				t.Errorf("untraced run digest %s, traced run digest %s", un.SimDigest, tr.SimDigest)
			}
			again := mustRun(t, w, true, "")
			if again.SimDigest != tr.SimDigest {
				t.Errorf("same seed, digests %s and %s", tr.SimDigest, again.SimDigest)
			}
			for _, s := range perLayer {
				if s.Unit == "count" && again.Metrics[s.Name] != tr.Metrics[s.Name] {
					t.Errorf("same seed, count %s = %v and %v", s.Name, tr.Metrics[s.Name].Value, again.Metrics[s.Name].Value)
				}
			}
			var line bytes.Buffer
			if err := un.print(&line, endToEnd); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(line.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || len(res) != 4 {
				t.Errorf("last line is not the four-key result object: %v: %s", err, lines[len(lines)-1])
			}
		})
	}
}

// TestLayersSeen checks that the traced run reports self time for every
// layer of each workload's stack.
func TestLayersSeen(t *testing.T) {
	useTinySizes(t)
	for name, want := range map[string][]string{
		"coldstart": {"sim.send_self_s", "centaur.handle_self_s", "sim.run_self_s"},
		"baseline":  {"sim.send_self_s", "bgp.handle_self_s", "ospf.handle_self_s"},
		"churn": {"sim.send_self_s", "liveness.handle_self_s", "liveness.send_self_s", "transport.handle_self_s",
			"transport.send_self_s", "centaur.handle_self_s", "bgp.handle_self_s", "faults.deliver_self_s", "forward.walk_ns_per_flow"},
		"static": {"solver.cold_solve_s", "experiments.table45_s", "experiments.figure5_s"},
	} {
		r := mustRun(t, findWorkload(name), true, "")
		for _, m := range want {
			if r.Metrics[m].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, m, r.Metrics[m].Value)
			}
		}
	}
}

// TestChurnGuard: a flap shorter than the detection window is absorbed
// by liveness, and the workload must report that as failed operations
// rather than as a fast run.
func TestChurnGuard(t *testing.T) {
	useTinySizes(t)
	size.ChurnPlan.FlapDown = 5 * time.Millisecond
	size.ChurnPlan.Loss = 0
	r, err := runOne(findWorkload("churn"), 3, 0, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Failed == 0 {
		t.Fatalf("absorbed flaps went unnoticed: %+v", r.result)
	}
}

// TestSpanSelfTime checks the self-time arithmetic on a hand-built tree:
//
//	root      0..100
//	  a      10..30
//	  b      40..90
//	    c    50..60
func TestSpanSelfTime(t *testing.T) {
	var clock int64
	tr := &tracer{now: func() int64 { return clock }}
	sim, proto := tr.layer("sim"), tr.layer("proto")
	at := func(ns int64, f func()) { clock = ns; f() }
	at(0, func() { tr.begin(proto, opHandle, 1) })
	at(10, func() { tr.begin(sim, opSend, 1) })
	at(30, tr.end)
	at(40, func() { tr.begin(sim, opAfter, 1) })
	at(50, func() { tr.begin(sim, opRouteChanged, 1) })
	at(60, tr.end)
	at(90, tr.end)
	at(100, tr.end)
	for _, c := range []struct {
		layer string
		op    op
		self  int64
	}{{"proto", opHandle, 30}, {"sim", opSend, 20}, {"sim", opAfter, 40}, {"sim", opRouteChanged, 10}} {
		if got := tr.get(c.layer, c.op); got.selfNS != c.self || got.calls != 1 {
			t.Errorf("%s.%s: self %d ns over %d calls, want %d over 1", c.layer, opNames[c.op], got.selfNS, got.calls, c.self)
		}
	}
	if tr.rootNS != 100 || tr.roots != 1 || tr.spans != 4 {
		t.Errorf("rootNS %d roots %d spans %d, want 100, 1, 4", tr.rootNS, tr.roots, tr.spans)
	}
}

// TestSpansFile checks the JSONL a traced run writes: whole trees, each
// span inside its parent.
func TestSpansFile(t *testing.T) {
	useTinySizes(t)
	out := filepath.Join(t.TempDir(), "r.json")
	mustRun(t, findWorkload("churn"), true, out)
	f, err := os.Open(spansPath(out))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := map[uint64]Span{}
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	if len(spans) == 0 {
		t.Fatal("no span kept")
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Fatalf("span %+v is not inside its parent %+v (kept %v)", s, p, ok)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(wall float64, digest string) *reportFile {
		f := &reportFile{}
		for _, w := range workloads {
			r := report{Workload: w.Name, SimDigest: digest}
			r.Correct, r.Attempted = true, 1
			r.Metrics = map[string]metricValue{}
			for _, s := range endToEnd {
				r.Metrics[s.Name] = metricValue{Value: wall, Unit: s.Unit}
			}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *reportFile) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, f); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, same, slow := write("a.json", mk(1, "d1")), write("b.json", mk(1.01, "d2")), write("c.json", mk(1.3, "d1"))
	var out bytes.Buffer
	if err := compareFiles(&out, a, same); err != nil {
		t.Errorf("1%% worse is inside every bound: %v", err)
	}
	if !strings.Contains(out.String(), "sim_digest differs") {
		t.Errorf("digest change not flagged:\n%s", out.String())
	}
	if err := compareFiles(&out, a, slow); err == nil {
		t.Error("30% worse exceeds every bound, but compare passed")
	}
	if err := compareFiles(&out, slow, a); err != nil {
		t.Errorf("an improvement exceeds no bound: %v", err)
	}
}
