package wire

import (
	"math/rand"
	"testing"

	"centaur/internal/bloom"
	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

// bigPerm builds one canonical group large enough that CompressPerm
// takes the Bloom form.
func bigPerm(next routing.NodeID, n int) []pgraph.PermEntry {
	out := make([]pgraph.PermEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pgraph.PermEntry{Dest: routing.NodeID(1000 + i*3), Next: next})
	}
	return out
}

// permOf builds a canonical pair list: one group per next hop with the
// given destinations.
func permOf(groups map[routing.NodeID][]routing.NodeID) []pgraph.PermEntry {
	var pl pgraph.PermissionList
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
	explicit := []pgraph.DestFilter{{Next: 9, Dests: dests}}
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

func TestCentaurUpdateFilterRoundTrip(t *testing.T) {
	// A compressed list mixing both group forms: a Bloom group (large
	// destination set) and an explicit group (small one).
	perm := append(bigPerm(5, 300), pgraph.PermEntry{Dest: 42, Next: 9})
	fs := CompressPerm(perm, 0.01)
	if fs[0].Filter == nil || fs[1].Filter != nil {
		t.Fatalf("expected bloom+explicit mix, got %+v", fs)
	}
	u := CentaurUpdate{Adds: []pgraph.LinkInfo{{
		Link:    routing.Link{From: 1, To: 2},
		Perm:    perm,
		Filters: fs,
	}}}
	enc := AppendCentaurUpdate(nil, u)
	got, err := DecodeCentaurUpdate(enc)
	if err != nil {
		t.Fatal(err)
	}
	// The explicit pairs are the sender's local oracle; only the
	// compressed form travels.
	if len(got.Adds) != 1 || got.Adds[0].Perm != nil {
		t.Fatalf("explicit pairs leaked onto the wire: %+v", got.Adds)
	}
	if len(got.Adds[0].Filters) != 2 {
		t.Fatalf("got %d filter groups, want 2", len(got.Adds[0].Filters))
	}
	for i := range fs {
		if !got.Adds[0].Filters[i].Equal(fs[i]) {
			t.Fatalf("filter group %d changed in transit", i)
		}
	}
	// Membership answers survive the round trip bit-for-bit, including
	// any false positives the sender's filter had.
	dec := got.Adds[0].Filters[0].Filter
	for id := routing.NodeID(1); id <= 5000; id++ {
		if dec.Has(id) != fs[0].Filter.Has(id) {
			t.Fatalf("membership diverged at %d after round trip", id)
		}
	}
	// Re-encode is byte-stable.
	enc2 := AppendCentaurUpdate(nil, got)
	if string(enc) != string(enc2) {
		t.Fatal("filter frame re-encode changed bytes")
	}
}

func TestCentaurUpdateSizeWithFilters(t *testing.T) {
	fs := CompressPerm(bigPerm(5, 300), 0.01)
	u := CentaurUpdate{Adds: []pgraph.LinkInfo{
		{Link: routing.Link{From: 1, To: 2}, Filters: fs},
		{Link: routing.Link{From: 1, To: 3}, Filters: []pgraph.DestFilter{
			{Next: 4, Dests: []routing.NodeID{7}}}},
	}}
	if got, want := CentaurUpdateSize(u), len(AppendCentaurUpdate(nil, u)); got != want {
		t.Fatalf("CentaurUpdateSize = %d, encoded %d bytes", got, want)
	}
}

func TestPermWireLenMatchesEncoding(t *testing.T) {
	perm := append(bigPerm(5, 50), pgraph.PermEntry{Dest: 42, Next: 9})
	base := CentaurUpdate{Adds: []pgraph.LinkInfo{{Link: routing.Link{From: 1, To: 2}}}}
	withPerm := CentaurUpdate{Adds: []pgraph.LinkInfo{{Link: routing.Link{From: 1, To: 2}, Perm: perm}}}
	delta := len(AppendCentaurUpdate(nil, withPerm)) - len(AppendCentaurUpdate(nil, base))
	if got := PermWireLen(perm); got != delta {
		t.Fatalf("PermWireLen = %d, encoding grew by %d", got, delta)
	}
}

// centaurFrame hand-assembles an update frame with one Add carrying the
// given flags and body, then empty Removes/FailedLinks.
func centaurFrame(flags byte, body ...byte) []byte {
	frame := []byte{KindCentaurUpdate, 1, 1, 2, flags}
	frame = append(frame, body...)
	return append(frame, 0, 0)
}

func TestConflictingPermEncodingsRejected(t *testing.T) {
	// Flag bits 2 (explicit) and 4 (compressed) are mutually exclusive.
	if _, err := DecodeCentaurUpdate(centaurFrame(6)); err == nil {
		t.Fatal("decoder accepted both permission encodings at once")
	}
}

func TestNonCanonicalPermRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"duplicate group", []byte{2, 3, 1, 4, 3, 1, 5}},
		{"descending groups", []byte{2, 4, 1, 4, 3, 1, 5}},
		{"duplicate dest", []byte{1, 3, 2, 5, 5}},
		{"descending dests", []byte{1, 3, 2, 6, 5}},
		{"empty group", []byte{1, 3, 0}},
		{"zero groups", []byte{0}},
	} {
		if _, err := DecodeCentaurUpdate(centaurFrame(2, tc.body...)); err == nil {
			t.Fatalf("%s: non-canonical permission list accepted", tc.name)
		}
	}
}

func TestBadFilterFramesRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"unknown form tag", []byte{1, 3, 2}},
		{"zero-bit filter", []byte{1, 3, 1, 0, 1}},
		{"zero hashes", []byte{1, 3, 1, 8, 0, 0xff}},
		{"truncated bit array", []byte{1, 3, 1, 64, 1, 0xff}},
		{"nonzero padding bits", []byte{1, 3, 1, 4, 1, 0xff}},
		{"duplicate group", []byte{2, 3, 0, 1, 4, 3, 0, 1, 5}},
		{"descending groups", []byte{2, 4, 0, 1, 4, 3, 0, 1, 5}},
		{"empty explicit group", []byte{1, 3, 0, 0}},
		{"descending explicit dests", []byte{1, 3, 0, 2, 6, 5}},
		{"zero groups", []byte{0}},
	} {
		if _, err := DecodeCentaurUpdate(centaurFrame(4, tc.body...)); err == nil {
			t.Fatalf("%s: invalid filter frame accepted", tc.name)
		}
	}
	// The valid counterpart decodes: one Bloom group, m=4, k=1, clean
	// padding (only bits 0–3 may be set).
	if _, err := DecodeCentaurUpdate(centaurFrame(4, 1, 3, 1, 4, 1, 0x0f)); err != nil {
		t.Fatalf("valid minimal filter frame rejected: %v", err)
	}
}

func TestFilterOnlyListPermits(t *testing.T) {
	// End-to-end consumer view: what a pure wire receiver reconstructs
	// must answer membership exactly like the sender's filter.
	fl := bloom.New(3, 0.01)
	for _, id := range []routing.NodeID{10, 20, 30} {
		fl.Add(id)
	}
	u := CentaurUpdate{Adds: []pgraph.LinkInfo{{
		Link:    routing.Link{From: 1, To: 2},
		Filters: []pgraph.DestFilter{{Next: 5, Filter: fl}},
	}}}
	got, err := DecodeCentaurUpdate(AppendCentaurUpdate(nil, u))
	if err != nil {
		t.Fatal(err)
	}
	var pl pgraph.PermissionList
	pl.SetFilters(got.Adds[0].Filters)
	for _, id := range []routing.NodeID{10, 20, 30} {
		if ok, fp := pl.PermitReport(id, 5); !ok || fp {
			t.Fatalf("member %d: ok=%v fp=%v", id, ok, fp)
		}
	}
}
