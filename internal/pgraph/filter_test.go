package pgraph

import (
	"testing"

	"centaur/internal/bloom"
	"centaur/internal/routing"
)

// permOf builds a canonical pair list: one group per next hop with the
// given destinations.
func permOf(groups map[routing.NodeID][]routing.NodeID) []PermEntry {
	var pl PermissionList
	for next, dests := range groups {
		for _, d := range dests {
			pl.Add(d, next)
		}
	}
	return pl.Pairs()
}

func TestPermitReportExplicitForm(t *testing.T) {
	var pl PermissionList
	pl.Add(10, 3)
	pl.Add(11, 3)
	pl.SetFilters([]DestFilter{{Next: 3, Dests: []routing.NodeID{10, 11}}})
	if ok, fp := pl.PermitReport(10, 3); !ok || fp {
		t.Fatalf("member: ok=%v fp=%v", ok, fp)
	}
	if ok, fp := pl.PermitReport(12, 3); ok || fp {
		t.Fatalf("non-member dest: ok=%v fp=%v", ok, fp)
	}
	if ok, fp := pl.PermitReport(10, 4); ok || fp {
		t.Fatalf("unknown next hop: ok=%v fp=%v", ok, fp)
	}
}

func TestPermitReportDetectsFalsePositive(t *testing.T) {
	// Plant a guaranteed false positive: the filter carries one ID the
	// explicit oracle does not. The check must deny it and report fp.
	var pl PermissionList
	pl.Add(10, 3)
	fl := bloom.New(2, 0.01)
	fl.Add(10)
	fl.Add(99) // the planted false positive
	pl.SetFilters([]DestFilter{{Next: 3, Filter: fl}})
	if ok, fp := pl.PermitReport(10, 3); !ok || fp {
		t.Fatalf("true member: ok=%v fp=%v", ok, fp)
	}
	if ok, fp := pl.PermitReport(99, 3); ok || !fp {
		t.Fatalf("planted FP must be denied and reported: ok=%v fp=%v", ok, fp)
	}
	// A filter miss is authoritative, not a false positive.
	if ok, fp := pl.PermitReport(500, 3); ok || fp {
		t.Fatalf("filter miss: ok=%v fp=%v", ok, fp)
	}
}

func TestPermitReportTrustsFilterWithoutOracle(t *testing.T) {
	// A pure wire consumer has only the compressed form; the filter's
	// answer is all there is, so a (possibly false) positive is trusted.
	fl := bloom.New(1, 0.01)
	fl.Add(10)
	var pl PermissionList
	pl.SetFilters([]DestFilter{{Next: 3, Filter: fl}})
	if pl.Empty() {
		t.Fatal("filter-only list must not be Empty")
	}
	if ok, fp := pl.PermitReport(10, 3); !ok || fp {
		t.Fatalf("filter positive without oracle: ok=%v fp=%v", ok, fp)
	}
	if ok, fp := pl.PermitReport(500, 3); ok || fp {
		t.Fatalf("filter miss without oracle: ok=%v fp=%v", ok, fp)
	}
}

func TestApplyCarriesFilters(t *testing.T) {
	g := New(testIx, 1)
	fs := []DestFilter{{Next: 3, Dests: []routing.NodeID{10, 11}}}
	d := Delta{Adds: []LinkInfo{{
		Link:    routing.Link{From: 1, To: 2},
		Perm:    permOf(map[routing.NodeID][]routing.NodeID{3: {10, 11}}),
		Filters: fs,
	}}}
	g.Apply(d)
	pl := g.Permission(routing.Link{From: 1, To: 2})
	if pl == nil || pl.Filters() == nil {
		t.Fatal("Apply dropped the compressed representation")
	}
	if ok, fp := pl.PermitReport(10, 3); !ok || fp {
		t.Fatalf("applied list: ok=%v fp=%v", ok, fp)
	}
	// Clone must deep-copy: mutating the clone's filters leaves the
	// original intact.
	cl := g.Clone()
	clPL := cl.Permission(routing.Link{From: 1, To: 2})
	clPL.SetFilters(nil)
	if g.Permission(routing.Link{From: 1, To: 2}).Filters() == nil {
		t.Fatal("clone shared the original's filters")
	}
}

func TestLinkInfoEqualSeesFilters(t *testing.T) {
	perm := permOf(map[routing.NodeID][]routing.NodeID{3: {10}})
	a := LinkInfo{Link: routing.Link{From: 1, To: 2}, Perm: perm}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clones must be equal")
	}
	b.Filters = []DestFilter{{Next: 3, Dests: []routing.NodeID{10}}}
	if a.Equal(b) {
		t.Fatal("Equal ignored the compressed representation")
	}
}
