package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// relFlows is a small but fully loaded reliability sweep: faults,
// flows, and a detection sweep including the oracle point.
func relFlows(workers int) (*ReliabilityResult, error) {
	return RunReliability(Scenario{Nodes: 24, LinksPerNode: 2, Seed: 3, Flows: 12, FlowSeed: 42, Workers: workers},
		ReliabilityConfig{
			LossRates:       []float64{0, 0.1},
			ChurnRates:      []float64{10},
			Trials:          1,
			FaultSeed:       7,
			DetectIntervals: []time.Duration{0, 2 * time.Millisecond},
		})
}

// TestReliabilityFlowsWorkerInvariance extends the determinism
// guarantee to the data plane and the liveness detector: the integrated
// user impact and BFD accounting are byte-identical at every worker
// count.
func TestReliabilityFlowsWorkerInvariance(t *testing.T) {
	want, err := relFlows(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		got, err := relFlows(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: samples differ from serial run", workers)
		}
	}
}

// TestReliabilityFlowsAccounting sanity-checks the sweep output: every
// trial converges into a correct state (flows verified against the
// solver oracle inside the run), blackhole time is nonzero once
// detection latency exists, and the report carries the impact columns.
func TestReliabilityFlowsAccounting(t *testing.T) {
	res, err := relFlows(0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasImpact || !res.HasDetect {
		t.Fatalf("HasImpact=%v HasDetect=%v, want both", res.HasImpact, res.HasDetect)
	}
	var bfdBlackhole float64
	for _, s := range res.Samples {
		if !s.OK() {
			t.Fatalf("%s loss=%g churn=%g detect=%v: converged=%v violations=%d",
				s.Protocol, s.Loss, s.Churn, s.DetectInterval, s.Converged, s.Violations)
		}
		if s.DetectInterval > 0 {
			bfdBlackhole += s.Impact.BlackholeSec
			if s.BFD.Established == 0 {
				t.Fatalf("%s detect=%v: no sessions established", s.Protocol, s.DetectInterval)
			}
		}
	}
	if bfdBlackhole == 0 {
		t.Fatal("churny BFD grid points report zero blackhole-seconds; detection latency must cost something")
	}
	out := res.String()
	for _, want := range []string{"detect", "oracle", "bh=", "total blackhole flow-seconds:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
