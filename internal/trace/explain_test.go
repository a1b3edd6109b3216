package trace

import (
	"reflect"
	"strings"
	"testing"
)

// explainTrace is a hand-built two-chunk v2 trace with a known causal
// structure: chunk 0 has a two-hop convergence wave off a link-down and
// an impactless link-up; chunk 1 has a path-hunting next-hop cycle.
const explainTrace = `{"chunk":0,"v":2,"label":"fig6.centaur","seed":42}
{"t":10,"k":"link-down","f":1,"o":2,"c":1,"d":0}
{"t":10,"k":"send","f":1,"o":3,"m":"centaur.update","u":1,"b":40,"c":2,"p":1,"d":1}
{"t":12,"k":"deliver","f":1,"o":3,"m":"centaur.update","u":1,"b":40,"c":3,"p":2,"d":1}
{"t":12,"k":"route","f":3,"o":2,"c":4,"p":3,"d":1,"oh":1,"nh":0}
{"t":13,"k":"send","f":3,"o":4,"m":"centaur.update","u":1,"b":40,"c":5,"p":3,"d":2}
{"t":15,"k":"deliver","f":3,"o":4,"m":"centaur.update","u":1,"b":40,"c":6,"p":5,"d":2}
{"t":15,"k":"route","f":4,"o":2,"c":7,"p":6,"d":2,"oh":0,"nh":3}
{"t":20,"k":"link-up","f":1,"o":2,"c":8,"p":1,"d":0}
{"chunk":1,"v":2,"label":"fig6.bgp","seed":43}
{"t":0,"k":"link-down","f":4,"o":5,"c":1,"d":0}
{"t":1,"k":"route","f":6,"o":9,"c":2,"p":1,"d":0,"oh":5,"nh":3}
{"t":2,"k":"route","f":6,"o":9,"c":3,"p":1,"d":0,"oh":3,"nh":5}
{"t":3,"k":"route","f":6,"o":9,"c":4,"p":1,"d":0,"oh":5,"nh":3}
`

func TestExplainCausalTrees(t *testing.T) {
	rep, err := Explain(strings.NewReader(explainTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(rep.Chunks))
	}

	c0 := rep.Chunks[0]
	if c0.Label != "fig6.centaur" || c0.Seed != 42 || len(c0.Roots) != 2 {
		t.Fatalf("chunk 0 = %+v", c0)
	}
	down := c0.Roots[0]
	if down.Kind != "link-down" || down.From != 1 || down.To != 2 || down.At != 10 {
		t.Fatalf("root 0 = %+v", down)
	}
	if down.RouteChanges != 2 || !reflect.DeepEqual(down.Wavefront, []int{0, 1, 1}) {
		t.Fatalf("wavefront = %v (changes %d), want [0 1 1] (2)", down.Wavefront, down.RouteChanges)
	}
	if down.LastRouteAt != 15 || down.ConvergenceNs() != 5 {
		t.Fatalf("convergence = %d (last %d), want 5 (15)", down.ConvergenceNs(), down.LastRouteAt)
	}
	cp := down.Critical
	if cp.Depth != 2 || cp.LatencyNs != 5 {
		t.Fatalf("critical = %+v, want depth 2 latency 5", cp)
	}
	wantHops := []Hop{
		{From: 1, To: 3, Msg: "centaur.update", SendAt: 10, DeliverAt: 12},
		{From: 3, To: 4, Msg: "centaur.update", SendAt: 13, DeliverAt: 15},
	}
	if !reflect.DeepEqual(cp.Hops, wantHops) {
		t.Fatalf("hops = %+v, want %+v", cp.Hops, wantHops)
	}
	up := c0.Roots[1]
	if up.Kind != "link-up" || up.RouteChanges != 0 || up.Critical.Depth != 0 || up.Critical.LatencyNs != 0 {
		t.Fatalf("impactless link-up = %+v", up)
	}
	wantChurn := []DestChurn{
		{Node: 3, Dest: 2, Changes: 1, NextHops: []int64{0}},
		{Node: 4, Dest: 2, Changes: 1, NextHops: []int64{3}},
	}
	if !reflect.DeepEqual(c0.Churn, wantChurn) {
		t.Fatalf("churn = %+v, want %+v", c0.Churn, wantChurn)
	}
	wantBlame := []LinkBlame{
		{A: 1, B: 3, Hops: 1, LatencyNs: 2},
		{A: 3, B: 4, Hops: 1, LatencyNs: 2},
	}
	if !reflect.DeepEqual(c0.Blame, wantBlame) {
		t.Fatalf("blame = %+v, want %+v", c0.Blame, wantBlame)
	}

	// Chunk 1: three same-pair route changes whose next hop revisits 3
	// non-adjacently — one cycle.
	c1 := rep.Chunks[1]
	if len(c1.Roots) != 1 || c1.Roots[0].RouteChanges != 3 {
		t.Fatalf("chunk 1 roots = %+v", c1.Roots)
	}
	if len(c1.Churn) != 1 {
		t.Fatalf("chunk 1 churn = %+v", c1.Churn)
	}
	ch := c1.Churn[0]
	if ch.Node != 6 || ch.Dest != 9 || ch.Changes != 3 || ch.Cycles != 1 ||
		!reflect.DeepEqual(ch.NextHops, []int64{3, 5, 3}) {
		t.Fatalf("cycle churn = %+v", ch)
	}
	// Depth-0 critical path (no message hops): the latest route change.
	if c1.Roots[0].Critical.Depth != 0 || c1.Roots[0].Critical.LatencyNs != 3 ||
		len(c1.Roots[0].Critical.Hops) != 0 {
		t.Fatalf("depth-0 critical = %+v", c1.Roots[0].Critical)
	}

	sum := rep.SeriesSummary()
	cent := sum["fig6.centaur"]
	if cent.Roots != 2 || cent.CriticalDepthMax != 2 {
		t.Fatalf("fig6.centaur summary = %+v", cent)
	}
	if bgp := sum["fig6.bgp"]; bgp.Roots != 1 || bgp.CriticalDepthMax != 0 {
		t.Fatalf("fig6.bgp summary = %+v", bgp)
	}
}

// explainGolden is the exact -explain rendering of explainTrace; the
// output is fully deterministic, so any drift is a deliberate format
// change and this constant moves with it.
const explainGolden = `chunk "fig6.centaur" seed=42: 2 root event(s), 0 startup route change(s)
  link-down 1-2 at 10ns: 2 route change(s), converged +5ns
    wavefront: d1:1 d2:1
    critical path: depth 2, +5ns
      1→3 centaur.update +2ns
      3→4 centaur.update +2ns
  link-up 1-2 at 20ns: 0 route change(s) — no routing impact
  churn (top):
    node 3 dest 2: 1 change(s), nh -
    node 4 dest 2: 1 change(s), nh 3
  blame (critical-path latency by link):
    link 1-3: 1 hop(s), 2ns
    link 3-4: 1 hop(s), 2ns

chunk "fig6.bgp" seed=43: 1 root event(s), 0 startup route change(s)
  link-down 4-5 at 0s: 3 route change(s), converged +3ns
    wavefront: d0:3
    critical path: depth 0, +3ns
  churn (top):
    node 6 dest 9: 3 change(s), 1 cycle(s), nh 3>5>3

per-series critical paths (all chunks):
  fig6.bgp           roots=1    depth p50=0 p90=0 max=0  latency-ms p50=0.00 p90=0.00 max=0.00
  fig6.centaur       roots=2    depth p50=1 p90=2 max=2  latency-ms p50=0.00 p90=0.00 max=0.00
`

func TestExplainRenderingGolden(t *testing.T) {
	rep, err := Explain(strings.NewReader(explainTrace))
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.String(); out != explainGolden {
		t.Errorf("rendering drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", out, explainGolden)
	}
}

func TestExplainRejectsV1(t *testing.T) {
	v1 := "{\"chunk\":0,\"label\":\"x\",\"seed\":1}\n{\"t\":1,\"k\":\"route\",\"f\":0,\"o\":1}\n"
	if _, err := Explain(strings.NewReader(v1)); err == nil {
		t.Fatal("v1 trace must be rejected with a pointer at -prov")
	}
	if _, err := Explain(strings.NewReader("{\"t\":1,\"k\":\"route\",\"f\":0,\"o\":1}\n")); err == nil {
		t.Fatal("event before header must be rejected")
	}
	// A v1 chunk ahead of a broken line: Explain reports what Validate
	// reports.
	broken := v1 + `{"t":0,"k":"route","f":0,"o":1}` + "\n"
	_, verr := Validate(strings.NewReader(broken))
	_, eerr := Explain(strings.NewReader(broken))
	if verr == nil || eerr == nil || eerr.Error() != verr.Error() {
		t.Fatalf("Explain error %v, Validate error %v: want the same", eerr, verr)
	}
}

// TestExplainRejectsWhatValidateRejects: Explain reads through the
// validating reader, so it fails every invalid trace with Validate's
// line-numbered error (the span gap used to pass Validate and fail only
// Explain).
func TestExplainRejectsWhatValidateRejects(t *testing.T) {
	for name, in := range map[string]string{
		"span gap":      strings.Replace(explainTrace, `"c":8,"p":1`, `"c":9,"p":1`, 1),
		"depth":         strings.Replace(explainTrace, `"c":7,"p":6,"d":2`, `"c":7,"p":6,"d":3`, 1),
		"unknown kind":  strings.Replace(explainTrace, `"k":"link-up"`, `"k":"link-sideways"`, 1),
		"non-monotone":  strings.Replace(explainTrace, `{"t":20,`, `{"t":14,`, 1),
		"chunk id":      strings.Replace(explainTrace, `{"chunk":1,`, `{"chunk":2,`, 1),
		"orphan parent": strings.Replace(explainTrace, `"c":4,"p":1`, `"c":4,"p":7`, 1),
	} {
		if in == explainTrace {
			t.Fatalf("%s: the replacement did not apply", name)
		}
		_, verr := Validate(strings.NewReader(in))
		_, eerr := Explain(strings.NewReader(in))
		if verr == nil || eerr == nil || eerr.Error() != verr.Error() {
			t.Errorf("%s: Explain error %v, Validate error %v: want the same", name, eerr, verr)
		}
	}
}

// TestExplainAttributesToAttackRoot: an adv-inject note is a root, as
// the validator has it, so the route change its forged update causes
// belongs to that attack's tree rather than to initial convergence.
func TestExplainAttributesToAttackRoot(t *testing.T) {
	rep, err := Explain(strings.NewReader(validAdvTrace))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Chunks[0]
	if c.StartupRouteChanges != 0 || len(c.Roots) != 1 {
		t.Fatalf("chunk = %+v, want one root and no startup route change", c)
	}
	r := c.Roots[0]
	if r.Kind != NoteAdvInject || r.From != 9 || r.To != 2 || r.RouteChanges != 1 ||
		!reflect.DeepEqual(r.Wavefront, []int{0, 1}) || r.Critical.Depth != 1 || len(r.Critical.Hops) != 1 {
		t.Fatalf("attack root = %+v", r)
	}
}
