package experiments

import (
	"reflect"
	"testing"
)

// Small-scale PLOverhead: the byte bound, the fp accounting, and the
// package's worker-count determinism contract. 0.5 is the worst fp
// target the protocol tolerates; at test scale it is also what makes
// the Bloom form win for the modest provider-cone groups the small
// topologies produce, so the probe path actually runs.
func TestPLOverheadSmallScale(t *testing.T) {
	cfg := PLOverheadConfig{Solved: solvedTable3(t, Scale{Nodes: 300, Seed: 1}), FPRate: 0.5}
	res, err := PLOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	// The byte totals and accepted-list counts are pinned exactly: the
	// wire sizes are a pure function of the topology, so any change to
	// the layout or to CompressPerm's decision moves them.
	pinned := map[string][3]int64{ // explicit B, compressed B, accepted lists
		"CAIDA-like": {147648, 147180, 43},
		"HeTop-like": {127155, 125928, 164},
	}
	compressedLists, fpHits := int64(0), int64(0)
	for _, row := range res.Rows {
		if got, want := [3]int64{row.ExplicitBytes, row.CompressedBytes, row.CompressedLists}, pinned[row.Name]; got != want {
			t.Errorf("%s: explicit/compressed bytes and accepted lists = %v, want %v", row.Name, got, want)
		}
		if row.Lists == 0 || row.Groups == 0 {
			t.Fatalf("%s: empty measurement: %+v", row.Name, row)
		}
		if row.CompressedBytes > row.ExplicitBytes {
			t.Fatalf("%s: compressed %d B above explicit %d B", row.Name, row.CompressedBytes, row.ExplicitBytes)
		}
		if row.CompressedLists > 0 && row.CompressedBytes >= row.ExplicitBytes {
			t.Fatalf("%s: accepted lists but no byte saving: %+v", row.Name, row)
		}
		if row.FPHits > row.Probes {
			t.Fatalf("%s: more hits than probes: %+v", row.Name, row)
		}
		compressedLists += row.CompressedLists
		fpHits += row.FPHits
	}
	if compressedLists == 0 {
		t.Fatal("no list took the compressed form; the probe path never ran")
	}
	if fpHits == 0 {
		t.Fatal("no Bloom false positive observed at fp target 0.5")
	}
	cfg.Workers = 4
	again, err := PLOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("results differ across worker counts:\n%+v\n%+v", res, again)
	}
}
