package experiments

import (
	"strings"
	"testing"
)

// TestScalingQuickGate is the CI gate for the incremental solver: at a
// quick scale the warm-start flip path must verify byte-identical
// against cold solves and be at least an order of magnitude faster.
// (At the full 4k/16k sweep sizes the measured gap is 500-1000x; 10x at
// 400 nodes leaves generous headroom for loaded CI machines.)
func TestScalingQuickGate(t *testing.T) {
	res, err := Scaling(Scenario{Sizes: []int{400}, Flips: 12, Seed: 7, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(res.Points))
	}
	p := res.Points[0]
	if !p.Verified {
		t.Error("verify pass did not run")
	}
	if p.Speedup < 10 {
		t.Errorf("incremental flip only %.1fx faster than cold solve, want >= 10x", p.Speedup)
	}
	if p.MeanDirty <= 0 || p.MeanDirty > float64(p.Nodes) {
		t.Errorf("mean dirty %.1f outside (0, %d]", p.MeanDirty, p.Nodes)
	}
	if out := res.String(); !strings.Contains(out, "Scaling") || !strings.Contains(out, "yes") {
		t.Errorf("render broken:\n%s", out)
	}
}

// TestScalingMultiSize exercises the sweep loop over more than one size
// with verification on, at toy scale.
func TestScalingMultiSize(t *testing.T) {
	res, err := Scaling(Scenario{Sizes: []int{60, 90}, Flips: 6, Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Verified {
			t.Errorf("n=%d not verified", p.Nodes)
		}
		if p.Links <= 0 {
			t.Errorf("n=%d: no links recorded", p.Nodes)
		}
	}
}
