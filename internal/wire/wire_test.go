package wire

import (
	"math/rand"
	"testing"
	"testing/quick"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

func TestCentaurUpdateRoundTrip(t *testing.T) {
	u := CentaurUpdate{
		Adds: []pgraph.LinkInfo{
			{Link: routing.Link{From: 1, To: 2}, ToIsDest: true},
			{Link: routing.Link{From: 2, To: 3}, Perm: []pgraph.PermEntry{
				{Dest: 5, Next: routing.None},
				{Dest: 4, Next: 7},
				{Dest: 9, Next: 7},
			}},
		},
		Removes:     []routing.Link{{From: 8, To: 9}},
		FailedLinks: []routing.Link{{From: 8, To: 9}, {From: 9, To: 8}},
	}
	// Canonicalize the expectation: LinkInfo.Perm is defined sorted.
	enc := AppendCentaurUpdate(nil, u)
	got, err := DecodeCentaurUpdate(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Adds) != 2 || len(got.Removes) != 1 || len(got.FailedLinks) != 2 {
		t.Fatalf("decoded shape wrong: %+v", got)
	}
	if !got.Adds[0].Equal(u.Adds[0]) {
		t.Fatalf("add 0 mismatch: %v vs %v", got.Adds[0], u.Adds[0])
	}
	// Perm comes back in canonical (Next, Dest) order.
	want := []pgraph.PermEntry{{Dest: 5, Next: routing.None}, {Dest: 4, Next: 7}, {Dest: 9, Next: 7}}
	if len(got.Adds[1].Perm) != len(want) {
		t.Fatalf("perm length %d, want %d", len(got.Adds[1].Perm), len(want))
	}
	for i, e := range want {
		if got.Adds[1].Perm[i] != e {
			t.Fatalf("perm[%d] = %v, want %v", i, got.Adds[1].Perm[i], e)
		}
	}
}

func TestBGPUpdateRoundTrip(t *testing.T) {
	for _, u := range []BGPUpdate{
		{Dest: 7, Path: routing.Path{1, 2, 7}},
		{Dest: 7}, // withdrawal
		{Dest: 7, Path: routing.Path{1, 7}, FailedLinks: []routing.Link{{From: 2, To: 3}}}, // BGP-RCN
	} {
		got, err := DecodeBGPUpdate(AppendBGPUpdate(nil, u))
		if err != nil {
			t.Fatal(err)
		}
		if got.Dest != u.Dest || !got.Path.Equal(u.Path) || len(got.FailedLinks) != len(u.FailedLinks) {
			t.Fatalf("round trip %+v -> %+v", u, got)
		}
	}
}

func TestOSPFLSARoundTrip(t *testing.T) {
	l := OSPFLSA{Origin: 3, Seq: 17, Neighbors: []routing.NodeID{1, 2, 9}}
	got, err := DecodeOSPFLSA(AppendOSPFLSA(nil, l))
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != l.Origin || got.Seq != l.Seq || len(got.Neighbors) != 3 {
		t.Fatalf("round trip %+v -> %+v", l, got)
	}
	for i := range l.Neighbors {
		if got.Neighbors[i] != l.Neighbors[i] {
			t.Fatalf("neighbor %d mismatch", i)
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	bgp := AppendBGPUpdate(nil, BGPUpdate{Dest: 1, Path: routing.Path{2, 1}})
	if _, err := DecodeCentaurUpdate(bgp); err == nil {
		t.Fatal("centaur decoder must reject a bgp message")
	}
	if _, err := DecodeOSPFLSA(bgp); err == nil {
		t.Fatal("ospf decoder must reject a bgp message")
	}
	cent := AppendCentaurUpdate(nil, CentaurUpdate{})
	if _, err := DecodeBGPUpdate(cent); err == nil {
		t.Fatal("bgp decoder must reject a centaur message")
	}
}

func TestTruncationRejected(t *testing.T) {
	enc := AppendCentaurUpdate(nil, CentaurUpdate{
		Adds: []pgraph.LinkInfo{{Link: routing.Link{From: 1, To: 2}, ToIsDest: true}},
	})
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCentaurUpdate(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d must be rejected", cut, len(enc))
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	enc := AppendBGPUpdate(nil, BGPUpdate{Dest: 3, Path: routing.Path{1, 3}})
	if _, err := DecodeBGPUpdate(append(enc, 7)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

// TestNonCanonicalFramesRejected pins frames that once decoded but
// re-encoded to different bytes: an overlong varint and unknown link
// flag bits.
func TestNonCanonicalFramesRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		frame  []byte
		decode func([]byte) error
	}{
		{"overlong bgp dest", []byte{KindBGPUpdate, 0x83, 0x00, 0, 0}, func(b []byte) error { _, err := DecodeBGPUpdate(b); return err }},
		{"unknown centaur flag", []byte{KindCentaurUpdate, 1, 1, 2, 8, 0, 0}, func(b []byte) error { _, err := DecodeCentaurUpdate(b); return err }},
		{"overlong bfd state", []byte{KindBFDControl, 0x81, 0x00, 0}, func(b []byte) error { _, err := DecodeBFDControl(b); return err }},
	} {
		if err := tc.decode(tc.frame); err == nil {
			t.Errorf("%s: frame %x decoded", tc.name, tc.frame)
		}
	}
}

func TestGarbageDoesNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		DecodeCentaurUpdate(buf) //nolint:errcheck // must merely not panic
		DecodeBGPUpdate(buf)     //nolint:errcheck
		DecodeOSPFLSA(buf)       //nolint:errcheck
	}
}

// TestCentaurRoundTripProperty fuzzes structured updates through the
// codec with testing/quick.
func TestCentaurRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUpdate(rng)
		got, err := DecodeCentaurUpdate(AppendCentaurUpdate(nil, u))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if len(got.Adds) != len(u.Adds) || len(got.Removes) != len(u.Removes) || len(got.FailedLinks) != len(u.FailedLinks) {
			return false
		}
		for i := range u.Adds {
			if !got.Adds[i].Equal(u.Adds[i]) {
				t.Logf("seed %d: add %d: %v vs %v", seed, i, got.Adds[i], u.Adds[i])
				return false
			}
		}
		for i := range u.Removes {
			if got.Removes[i] != u.Removes[i] {
				return false
			}
		}
		for i := range u.FailedLinks {
			if got.FailedLinks[i] != u.FailedLinks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomUpdate builds a structurally valid random update whose Perm
// slices are already in canonical order (encode canonicalizes anyway;
// building them canonical makes equality exact).
func randomUpdate(rng *rand.Rand) CentaurUpdate {
	var u CentaurUpdate
	node := func() routing.NodeID { return routing.NodeID(rng.Intn(100) + 1) }
	for i := rng.Intn(5); i > 0; i-- {
		li := pgraph.LinkInfo{
			Link:     routing.Link{From: node(), To: node()},
			ToIsDest: rng.Intn(2) == 0,
		}
		if rng.Intn(2) == 0 {
			var pl pgraph.PermissionList
			for j := rng.Intn(4) + 1; j > 0; j-- {
				next := routing.None
				if rng.Intn(3) > 0 {
					next = node()
				}
				pl.Add(node(), next)
			}
			li.Perm = pl.Pairs()
		}
		u.Adds = append(u.Adds, li)
	}
	for i := rng.Intn(4); i > 0; i-- {
		u.Removes = append(u.Removes, routing.Link{From: node(), To: node()})
	}
	for i := rng.Intn(3); i > 0; i-- {
		u.FailedLinks = append(u.FailedLinks, routing.Link{From: node(), To: node()})
	}
	return u
}

func BenchmarkEncodeCentaurUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := randomUpdate(rng)
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = AppendCentaurUpdate(buf[:0], u)
	}
}

func BenchmarkDecodeCentaurUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	enc := AppendCentaurUpdate(nil, randomUpdate(rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCentaurUpdate(enc); err != nil {
			b.Fatal(err)
		}
	}
}
