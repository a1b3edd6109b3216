package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"centaur/internal/telemetry"
	"centaur/internal/trace"
)

// TestReliabilityAcceptance is the PR's headline acceptance check: on a
// 150-node topology at 20% uniform message loss, all three protocols —
// wrapped in the reliable-transport adapter — converge to the
// solver-verified ground truth under a fixed fault seed.
func TestReliabilityAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("150-node fault sweep in -short mode")
	}
	res, err := RunReliability(Scenario{Nodes: 150, LinksPerNode: 2, Seed: 1}, ReliabilityConfig{
		LossRates: []float64{0.2},
		Trials:    1, FaultSeed: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("want one sample per protocol, got %d", len(res.Samples))
	}
	var sawLoss, sawRexmit bool
	for _, s := range res.Samples {
		if !s.Converged {
			t.Errorf("%s did not converge: %s", s.Protocol, s.Diagnostic)
			continue
		}
		if s.Violations != 0 {
			t.Errorf("%s quiesced into a wrong state (%d violations): %s",
				s.Protocol, s.Violations, s.FirstViolation)
		}
		if s.ConvergenceTime <= 0 {
			t.Errorf("%s: convergence time %v", s.Protocol, s.ConvergenceTime)
		}
		sawLoss = sawLoss || s.FaultDrops > 0
		sawRexmit = sawRexmit || s.Retransmits > 0
		if s.DeliverySuccess >= 1 || s.DeliverySuccess <= 0 {
			t.Errorf("%s: delivery success %v under 20%% loss", s.Protocol, s.DeliverySuccess)
		}
	}
	if !sawLoss || !sawRexmit {
		t.Fatalf("fault machinery idle: sawLoss=%v sawRexmit=%v", sawLoss, sawRexmit)
	}
	if out := res.String(); !strings.Contains(out, "loss=0.20") {
		t.Fatalf("result renders badly:\n%s", out)
	}
}

// TestReliabilityWorkerCountInvariance pins the determinism contract
// for the fault harness: samples, the JSONL trace, and the telemetry
// snapshot are byte-identical for every worker count, with the full
// fault repertoire (loss, dup, jitter, churn, crashes) active.
func TestReliabilityWorkerCountInvariance(t *testing.T) {
	cfg := ReliabilityConfig{
		LossRates:  []float64{0.15},
		ChurnRates: []float64{0, 10},
		Dup:        0.05, Jitter: time.Millisecond,
		Crashes: 1, window: 300 * time.Millisecond,
		Trials: 2, FaultSeed: 500,
	}
	run := func(workers int) (*ReliabilityResult, *trace.Collector, *telemetry.Registry) {
		s := Scenario{Nodes: 30, LinksPerNode: 2, Seed: 3, Workers: workers,
			Trace: trace.NewCollector(), Telemetry: telemetry.New()}
		res, err := RunReliability(s, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, s.Trace, s.Telemetry
	}
	res1, tc1, reg1 := run(1)
	res8, tc8, reg8 := run(runtime.GOMAXPROCS(0) + 3)

	if !reflect.DeepEqual(res1, res8) {
		t.Fatal("samples differ between serial and parallel runs")
	}
	b1, b8 := tc1.Bytes(), tc8.Bytes()
	if len(b1) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("traces differ between serial and parallel runs")
	}
	sum, err := trace.Validate(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if sum.ByKind["fault-loss"] == 0 || sum.ByKind["crash"] == 0 {
		t.Fatalf("fault events missing from trace: %v", sum.ByKind)
	}
	s1, err := json.Marshal(reg1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s8, err := json.Marshal(reg8.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s8) {
		t.Fatalf("telemetry snapshots differ:\n%s\n%s", s1, s8)
	}
	for _, name := range []string{
		"faults.loss_injected", "faults.crashes", "faults.restarts",
		"transport.retransmits", "transport.dup_suppressed",
	} {
		if reg1.Counter(name).Value() == 0 {
			t.Errorf("counter %s never incremented", name)
		}
	}
	for _, s := range res1.Samples {
		if !s.OK() {
			t.Errorf("%s loss=%v churn=%v trial=%d failed: converged=%v violations=%d %s %s",
				s.Protocol, s.Loss, s.Churn, s.Trial, s.Converged, s.Violations, s.Diagnostic, s.FirstViolation)
		}
	}
}

// TestReliabilityPLFalsePositivesMatchTrace: a BloomPL trial's
// false-positive count, its sim.pl_fp counter and the pl-fp notes in its
// trace are one tally.
func TestReliabilityPLFalsePositivesMatchTrace(t *testing.T) {
	s := Scenario{Nodes: 100, LinksPerNode: 2, Seed: 5, Trace: trace.NewCollector(), Telemetry: telemetry.New()}
	res, err := RunReliability(s, ReliabilityConfig{
		LossRates: []float64{0},
		Trials:    1, FaultSeed: 21,
		BloomPL: true, PLFPRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var counted int64
	for _, smp := range res.Samples {
		counted += smp.PLFalsePositives
	}
	if counted == 0 {
		t.Fatal("the trial took no Bloom false positives; the test proves nothing")
	}
	sum, err := trace.Validate(bytes.NewReader(s.Trace.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if traced := int64(sum.ByKind[trace.NotePLFalsePositive]); traced != counted {
		t.Fatalf("samples count %d false positives, the trace carries %d pl-fp notes", counted, traced)
	}
	if c := s.Telemetry.Snapshot().Counters["sim.pl_fp"]; c != counted {
		t.Fatalf("sim.pl_fp = %d, samples count %d", c, counted)
	}
}

// TestReliabilityNoTransportIsDiagnostic runs the protocols raw under
// heavy loss: the harness must not error — it must *report* the failure
// per sample, either as a convergence-watchdog diagnostic or as
// invariant violations in the wrongly-quiesced state.
func TestReliabilityNoTransportIsDiagnostic(t *testing.T) {
	res, err := RunReliability(Scenario{Nodes: 40, LinksPerNode: 2, Seed: 2}, ReliabilityConfig{
		LossRates: []float64{0.3},
		Trials:    1, FaultSeed: 77,
		NoTransport: true,
		MaxEvents:   2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range res.Samples {
		if s.Retransmits != 0 || s.DupSuppressed != 0 {
			t.Errorf("%s: transport counters nonzero in a raw run", s.Protocol)
		}
		if s.OK() {
			continue
		}
		failed++
		if !s.Converged && s.Diagnostic == "" {
			t.Errorf("%s: non-convergence without a diagnostic", s.Protocol)
		}
		if s.Converged && s.FirstViolation == "" {
			t.Errorf("%s: violations reported without a sample", s.Protocol)
		}
	}
	if failed == 0 {
		t.Fatal("every raw protocol survived 30% loss — the adapter would be pointless")
	}
}
