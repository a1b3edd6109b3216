package experiments

import (
	"os"
	"testing"
)

// TestPLOverheadFullScaleManual reproduces the EXPERIMENTS.md §4.1
// numbers at the documented 4,000-node scale (~1–3 min). Gated behind
// an env var so the regular suite stays fast:
//
//	PL_FULL=1 go test ./internal/experiments -run TestPLOverheadFullScaleManual -v -timeout 30m
func TestPLOverheadFullScaleManual(t *testing.T) {
	if os.Getenv("PL_FULL") == "" {
		t.Skip("set PL_FULL=1 to run the full-scale measurement")
	}
	res, err := PLOverhead(PLOverheadConfig{Solved: solvedTable3(t, Scale{Nodes: 4000, Seed: 1})})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.CompressedBytes >= row.ExplicitBytes {
			t.Errorf("%s: compressed %d B not below explicit %d B", row.Name, row.CompressedBytes, row.ExplicitBytes)
		}
	}
	t.Log("\n" + res.String())
}
