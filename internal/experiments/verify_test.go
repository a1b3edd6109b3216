package experiments

import (
	"strings"
	"testing"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/ospf"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
)

// TestRunFlipsVerifiedQuiescence runs flip trials with the solver oracle
// attached for every protocol family the figures measure: after each
// fail and each restore phase the quiesced RIBs must match an
// incrementally re-solved ground truth (invariant.CheckAt). This is the
// end-to-end statement that the warm-start solver tracks the simulated
// network through arbitrary link schedules — a divergence in either the
// protocol or the incremental solver fails the run.
func TestRunFlipsVerifiedQuiescence(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	verify, err := verifySolution(g, true)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]sim.Builder{
		"centaur": centaur.New(centaur.Config{Policy: hashedPolicy}),
		"bgp":     bgp.New(bgp.Config{Policy: hashedPolicy}),
		"ospf":    ospf.New(),
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			samples, err := RunFlips(FlipConfig{
				Topology: g, Build: build, Flips: 8, Seed: 5,
				Verify: verify, workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(samples) != 8 {
				t.Fatalf("got %d samples, want 8", len(samples))
			}
		})
	}
}

// TestRunFlipsVerifySamplesUnchanged pins that attaching the verifier is
// observationally free: the measured samples are byte-identical to an
// unverified run, because checks read RIBs only after phase accounting.
func TestRunFlipsVerifySamplesUnchanged(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := FlipConfig{
		Topology: g,
		Build:    centaur.New(centaur.Config{Policy: hashedPolicy}),
		Flips:    6, Seed: 9,
	}
	plain, err := RunFlips(base)
	if err != nil {
		t.Fatal(err)
	}
	verified := base
	if verified.Verify, err = verifySolution(g, true); err != nil {
		t.Fatal(err)
	}
	got, err := RunFlips(verified)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plain) {
		t.Fatalf("sample counts differ: %d vs %d", len(got), len(plain))
	}
	for i := range got {
		if got[i] != plain[i] {
			t.Errorf("sample %d differs with verification attached: %+v vs %+v", i, got[i], plain[i])
		}
	}
}

// TestRunFlipsVerifyCatchesWrongOracle hands the verifier a solution for
// the wrong tie-break mode; the path-vector RIBs then legitimately
// disagree with the oracle and the run must fail loudly rather than
// return samples.
func TestRunFlipsVerifyCatchesWrongOracle(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Default tie-break (lowest-via) while the network runs TieHashed.
	wrong, err := solver.SolveOpts(g, solver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunFlips(FlipConfig{
		Topology: g,
		Build:    centaur.New(centaur.Config{Policy: hashedPolicy}),
		Flips:    8, Seed: 5,
		Verify: wrong,
	})
	if err == nil {
		t.Fatal("mismatched oracle must fail the run")
	}
	if !strings.Contains(err.Error(), "invariant") {
		t.Errorf("error does not name the invariant failure: %v", err)
	}
}

// TestFigure6Verified smoke-runs the figure harness with verification
// enabled end to end.
func TestFigure6Verified(t *testing.T) {
	res, err := Figure6(Scenario{Nodes: 60, LinksPerNode: 2, Flips: 6, Seed: 2,
		MRAI: 30e9, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centaur.N() == 0 {
		t.Fatal("no samples")
	}
}
