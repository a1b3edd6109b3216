package pgraph

import (
	"math/rand"
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

func TestCompressPermSmallListRefused(t *testing.T) {
	// Table 5: most Permission Lists have 1–3 pairs per group. A Bloom
	// filter's fixed 64-bit floor can never beat a couple of varints, and
	// the compressed container itself costs a form-tag byte per group —
	// so for a small list compression cannot pay and CompressPerm must
	// decline, leaving the sender on the plain explicit encoding.
	perm := permOf(map[routing.NodeID][]routing.NodeID{
		3: {10, 11},
		4: {12},
	})
	if fs := CompressPerm(perm, 0.01); fs != nil {
		t.Fatalf("small list compressed to %+v, want refusal (nil)", fs)
	}
}

func TestCompressPermMixedListPaysForItsTags(t *testing.T) {
	// One provider-cone-sized group among small ones: the Bloom savings
	// on the big group must exceed the per-group tag overhead, and the
	// small groups keep their explicit form inside the container.
	dests := make([]routing.NodeID, 0, 300)
	for i := 0; i < 300; i++ {
		dests = append(dests, routing.NodeID(1000+i*7))
	}
	perm := permOf(map[routing.NodeID][]routing.NodeID{
		3: {10, 11},
		4: {12},
		9: dests,
	})
	fs := CompressPerm(perm, 0.01)
	if len(fs) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(fs), fs)
	}
	for _, f := range fs {
		if wantBloom := f.Next == 9; (f.Filter != nil) != wantBloom {
			t.Fatalf("group %v: filter=%v", f.Next, f.Filter != nil)
		}
	}
	if got, want := FiltersWireLen(fs), PermWireLen(perm); got >= want {
		t.Fatalf("compressed %d B not below explicit %d B", got, want)
	}
}

func TestCompressPermLargeGroupCompresses(t *testing.T) {
	// A provider-cone-sized group is where §4.1 compression pays: the
	// filter must win the per-group size race and shrink the total.
	dests := make([]routing.NodeID, 0, 400)
	for i := 0; i < 400; i++ {
		dests = append(dests, routing.NodeID(1000+i*7))
	}
	perm := permOf(map[routing.NodeID][]routing.NodeID{9: dests})
	fs := CompressPerm(perm, 0.01)
	if len(fs) != 1 || fs[0].Filter == nil {
		t.Fatalf("large group did not compress: %+v", fs)
	}
	explicit := []DestFilter{{Next: 9, Dests: dests}}
	if got, want := FiltersWireLen(fs), FiltersWireLen(explicit); got >= want {
		t.Fatalf("compressed %d B not below explicit %d B", got, want)
	}
}

func TestCompressPermNeverLarger(t *testing.T) {
	// The whole-list decision rule: whenever CompressPerm accepts, the
	// compressed form must be strictly smaller on the wire than the
	// plain grouped encoding it replaces — never merely equal.
	rng := rand.New(rand.NewSource(3))
	accepted := 0
	for trial := 0; trial < 50; trial++ {
		groups := make(map[routing.NodeID][]routing.NodeID)
		for g := 0; g < 1+rng.Intn(6); g++ {
			next := routing.NodeID(rng.Intn(50))
			for n := 1 + rng.Intn(200); n > 0; n-- {
				groups[next] = append(groups[next], routing.NodeID(rng.Intn(100_000)+1))
			}
		}
		perm := permOf(groups)
		fs := CompressPerm(perm, 0.01)
		if fs == nil {
			continue
		}
		accepted++
		if got, want := FiltersWireLen(fs), PermWireLen(perm); got >= want {
			t.Fatalf("trial %d: compressed %d B not below explicit %d B", trial, got, want)
		}
	}
	if accepted == 0 {
		t.Fatal("no trial accepted compression; the test exercised nothing")
	}
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
