package pgraph

import (
	"testing"

	"centaur/internal/bloom"
	"centaur/internal/routing"
	"centaur/internal/telemetry"
)

// TestDeriveCountsFPHits drives a planted Bloom false positive through
// DerivePath and checks the full accounting chain: the pl.fp_hits
// counter increments, the graph's observer fires with the offending
// link, and — the off-mode byte-identity guarantee — a registry that
// never saw a hit does not contain the counter at all (it registers
// lazily on first use).
func TestDeriveCountsFPHits(t *testing.T) {
	reg := telemetry.New()
	SetTelemetry(reg)
	defer SetTelemetry(nil)

	// Diamond 1→{2,3}→4: node 4 is multi-homed, link 2→4 carries a
	// restricted list whose filter falsely admits destination 4 (the
	// oracle only permits 5), link 3→4 is the unrestricted primary.
	g := New(testIx, 1)
	for _, l := range []routing.Link{{From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4}} {
		g.AddLink(l)
	}
	g.MarkDest(4)
	pl := &PermissionList{}
	pl.Add(5, routing.None)
	fl := bloom.New(2, 0.01)
	fl.Add(4) // the planted false positive
	fl.Add(5)
	pl.SetFilters([]DestFilter{{Next: routing.None, Filter: fl}})
	g.SetPermission(routing.Link{From: 2, To: 4}, pl)

	var observed []routing.Link
	g.SetFPObserver(func(l routing.Link, dest, _ routing.NodeID) {
		if dest != 4 {
			t.Errorf("observer saw dest %v, want 4", dest)
		}
		observed = append(observed, l)
	})

	p, ok := g.DerivePath(4)
	if !ok || !p.Equal(routing.Path{1, 3, 4}) {
		t.Fatalf("DerivePath = %v, %v; want [1 3 4] (FP denied, primary link wins)", p, ok)
	}
	if got := reg.Snapshot().Counters["pl.fp_hits"]; got != 1 {
		t.Fatalf("pl.fp_hits = %d, want 1", got)
	}
	if len(observed) != 1 || observed[0] != (routing.Link{From: 2, To: 4}) {
		t.Fatalf("observer calls = %v, want one for link 2→4", observed)
	}

	// A registry with no hits must not know the counter exists.
	clean := telemetry.New()
	SetTelemetry(clean)
	if _, present := clean.Snapshot().Counters["pl.fp_hits"]; present {
		t.Fatal("pl.fp_hits registered without a hit; off-mode snapshots would grow")
	}
}
