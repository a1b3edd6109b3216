package experiments

import (
	"reflect"
	"strings"
	"testing"

	"centaur/internal/adversary"
	"centaur/internal/pgraph"
	"centaur/internal/telemetry"
)

// TestAdversarialLeakContainment is the suite's headline property on a
// CI-scale graph: a single route leak contaminates a nonzero fraction
// of BGP speakers, while Centaur's Permission-List structure denies the
// leaked fragments at the first hop — strictly smaller propagation
// radius, with the denials visible as structural evidence.
func TestAdversarialLeakContainment(t *testing.T) {
	cfg := AdversarialConfig{
		Kinds:          []adversary.Kind{adversary.Leak},
		AttackerCounts: []int{1},
		Trials:         1,
		AdvSeed:        40_000,
	}
	res, err := RunAdversarial(Scenario{Nodes: 80, LinksPerNode: 2, Seed: 7}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("want 2 samples, got %d", len(res.Samples))
	}
	byProto := map[string]AdversarialSample{}
	for _, s := range res.Samples {
		if !s.Converged {
			t.Fatalf("%s did not converge: %s", s.Protocol, s.Diagnostic)
		}
		byProto[s.Protocol] = s
	}
	b, c := byProto["bgp"], byProto["centaur"]
	if b.EverContaminated == 0 || b.Radius == 0 {
		t.Fatalf("bgp leak did not propagate: %+v", b)
	}
	if c.Radius >= b.Radius {
		t.Fatalf("centaur radius %d not strictly below bgp radius %d", c.Radius, b.Radius)
	}
	if b.InjectedUnits == 0 || c.InjectedUnits == 0 {
		t.Fatalf("attackers injected nothing: bgp=%d centaur=%d", b.InjectedUnits, c.InjectedUnits)
	}
	if len(c.StructuralDenials) == 0 {
		t.Fatalf("centaur recorded no structural denials of the leak")
	}
	// Contaminated entries disagree with the honest oracle by
	// construction, and the detector must explain them; the remainder
	// is collateral re-convergence (honest nodes settling on different
	// but compliant paths once the leak shifted announcements).
	if b.Violations == 0 || b.Violations <= b.UnexplainedViolations {
		t.Errorf("bgp violations not dominated by detector-explained entries: total=%d unexplained=%d",
			b.Violations, b.UnexplainedViolations)
	}
}

// TestAdversarialHijackForeignOrigin checks the hijack classification:
// contaminated BGP entries are foreign-origin (the forged path ends at
// the hijacker, not the victim).
func TestAdversarialHijackForeignOrigin(t *testing.T) {
	cfg := AdversarialConfig{
		Kinds:          []adversary.Kind{adversary.Hijack},
		AttackerCounts: []int{1},
		Trials:         1,
		AdvSeed:        41_000,
	}
	res, err := RunAdversarial(Scenario{Nodes: 60, LinksPerNode: 2, Seed: 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if !s.Converged {
			t.Fatalf("%s did not converge: %s", s.Protocol, s.Diagnostic)
		}
		if s.Protocol != "bgp" {
			continue
		}
		if s.EverContaminated == 0 {
			t.Fatalf("bgp hijack captured nobody: %+v", s)
		}
		if s.FinalKinds["foreign-origin"] == 0 {
			t.Fatalf("bgp hijack entries not classified foreign-origin: %v", s.FinalKinds)
		}
	}
}

// TestAdversarialStructuralVsBloomFP pins the two denial counters as
// separate evidence streams: with Bloom-compressed Permission Lists at
// an aggressive false-positive rate, the leak's structural denials land
// on adv.centaur.denied.* — and ONLY there: the sum equals the sample's
// StructuralDenials exactly — while Bloom false positives land on
// pl.fp_hits, which must count independently and never inflate the
// containment evidence.
func TestAdversarialStructuralVsBloomFP(t *testing.T) {
	reg := telemetry.New()
	pgraph.SetTelemetry(reg)
	defer pgraph.SetTelemetry(nil)
	cfg := AdversarialConfig{
		Kinds:          []adversary.Kind{adversary.Leak},
		AttackerCounts: []int{1},
		Trials:         1,
		AdvSeed:        40_000,
		bloomPL:        true,
		plFPRate:       0.45,
	}
	res, err := RunAdversarial(Scenario{Nodes: 200, LinksPerNode: 2, Seed: 7, Telemetry: reg}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var structSum int64
	found := false
	for _, s := range res.Samples {
		if s.Protocol != "centaur" {
			continue
		}
		found = true
		if len(s.StructuralDenials) == 0 {
			t.Fatal("BloomPL centaur run recorded no structural denials of the leak")
		}
		for _, n := range s.StructuralDenials {
			structSum += int64(n)
		}
	}
	if !found {
		t.Fatal("no centaur sample")
	}
	var counted int64
	for _, name := range reg.CounterNames() {
		if strings.HasPrefix(name, "adv.centaur.denied.") {
			counted += reg.Counter(name).Value()
		}
	}
	if counted != structSum {
		t.Fatalf("adv.centaur.denied.* total %d != sample structural denials %d — counters conflated",
			counted, structSum)
	}
	fp := reg.Counter("pl.fp_hits").Value()
	if fp == 0 {
		t.Fatalf("PLFPRate %v produced no Bloom false positives — the separation is untested", cfg.plFPRate)
	}
}

// TestAdversarialWorkerInvariance pins the determinism contract: the
// same sweep at Workers 1 and Workers 4 produces identical samples.
func TestAdversarialWorkerInvariance(t *testing.T) {
	cfg := AdversarialConfig{
		Kinds:          []adversary.Kind{adversary.Leak, adversary.Hijack},
		AttackerCounts: []int{1},
		NoiseFracs:     []float64{0, 0.05},
		Trials:         1,
		AdvSeed:        42_000,
	}
	s := Scenario{Nodes: 60, LinksPerNode: 2, Seed: 5, Flows: 8, FlowSeed: 99}
	s.Workers = 1
	a, err := RunAdversarial(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Workers = 4
	b, err := RunAdversarial(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("samples differ across worker counts:\n1: %+v\n4: %+v", a, b)
	}
}

// TestAdversarialNoiseRelabelDeterminism pins the seeded relabeler at
// the sweep level: same AdvSeed → identical flipped-edge counts and
// identical outcomes; different AdvSeed → a different scenario draw.
func TestAdversarialNoiseRelabelDeterminism(t *testing.T) {
	s := Scenario{Nodes: 60, LinksPerNode: 2, Seed: 11}
	cfg := AdversarialConfig{
		Kinds:      []adversary.Kind{adversary.Leak},
		NoiseFracs: []float64{0.1},
		Trials:     2,
		AdvSeed:    43_000,
	}
	a, err := RunAdversarial(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdversarial(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different sweeps")
	}
	if a.Samples[0].FlippedEdges == 0 {
		t.Fatal("noise fraction 0.1 flipped no edges")
	}
	// Trials draw distinct scenarios (per-scenario seeds differ).
	if a.Samples[0].FlippedEdges == a.Samples[2].FlippedEdges &&
		reflect.DeepEqual(a.Samples[0].FinalKinds, a.Samples[2].FinalKinds) &&
		a.Samples[0].Radius == a.Samples[2].Radius &&
		a.Samples[0].Messages == a.Samples[2].Messages {
		t.Fatal("two trials produced identical scenarios — per-scenario seeding broken")
	}
}
