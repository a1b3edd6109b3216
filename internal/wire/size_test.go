package wire

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

// randPerm builds a canonically (Next, Dest)-sorted permission list,
// including multi-byte varint IDs so size math covers length boundaries.
func randPerm(rng *rand.Rand, n int) []pgraph.PermEntry {
	out := make([]pgraph.PermEntry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pgraph.PermEntry{
			Dest: routing.NodeID(rng.Intn(1 << 20)),
			Next: routing.NodeID(rng.Intn(6) * 300), // few groups, incl. None
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Next != out[j].Next {
			return out[i].Next < out[j].Next
		}
		return out[i].Dest < out[j].Dest
	})
	return out
}

func randLinks(rng *rand.Rand, n int) []routing.Link {
	out := make([]routing.Link, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, routing.Link{
			From: routing.NodeID(rng.Intn(1 << 16)),
			To:   routing.NodeID(rng.Intn(1 << 16)),
		})
	}
	return out
}

func TestCentaurUpdateSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var u CentaurUpdate
		for j := rng.Intn(5); j > 0; j-- {
			li := pgraph.LinkInfo{
				Link:     routing.Link{From: routing.NodeID(rng.Intn(1 << 18)), To: routing.NodeID(rng.Intn(1 << 18))},
				ToIsDest: rng.Intn(2) == 0,
				Perm:     randPerm(rng, rng.Intn(8)),
			}
			// Sometimes carry the compressed form, occasionally with a
			// group large enough that the Bloom tag wins the size race.
			if rng.Intn(3) == 0 {
				perm := li.Perm
				if rng.Intn(2) == 0 {
					perm = randPerm(rng, 200)
				}
				li.Filters = CompressPerm(perm, 0.01)
			}
			u.Adds = append(u.Adds, li)
		}
		u.Removes = randLinks(rng, rng.Intn(4))
		u.FailedLinks = randLinks(rng, rng.Intn(3))
		if got, want := CentaurUpdateSize(u), len(AppendCentaurUpdate(nil, u)); got != want {
			t.Fatalf("CentaurUpdateSize = %d, encoded %d bytes (%+v)", got, want, u)
		}
	}
}

func TestBGPUpdateSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		u := BGPUpdate{Dest: routing.NodeID(rng.Intn(1 << 21))}
		for j := rng.Intn(7); j > 0; j-- {
			u.Path = append(u.Path, routing.NodeID(rng.Intn(1<<21)))
		}
		u.FailedLinks = randLinks(rng, rng.Intn(3))
		if got, want := BGPUpdateSize(u), len(AppendBGPUpdate(nil, u)); got != want {
			t.Fatalf("BGPUpdateSize = %d, encoded %d bytes (%+v)", got, want, u)
		}
	}
}

func TestOSPFLSASizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		l := OSPFLSA{Origin: routing.NodeID(rng.Intn(1 << 21)), Seq: rng.Uint64() >> uint(rng.Intn(64))}
		for j := rng.Intn(9); j > 0; j-- {
			l.Neighbors = append(l.Neighbors, routing.NodeID(rng.Intn(1<<21)))
		}
		if got, want := OSPFLSASize(l), len(AppendOSPFLSA(nil, l)); got != want {
			t.Fatalf("OSPFLSASize = %d, encoded %d bytes (%+v)", got, want, l)
		}
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<63 - 1, ^uint64(0)} {
		w := sizing()
		w.uvarint(v)
		if want := len(binary.AppendUvarint(nil, v)); w.n != want {
			t.Fatalf("sized uvarint %d as %d bytes, want %d", v, w.n, want)
		}
	}
}

// sizeCases are representative messages of each kind sized on every
// simulated send: a Centaur update with explicit Permission Lists, one
// with a Bloom group, a BGP-RCN update and an OSPF LSA.
func sizeCases() []struct {
	name string
	size func() int
} {
	rng := rand.New(rand.NewSource(1))
	explicit := CentaurUpdate{
		Adds: []pgraph.LinkInfo{
			{Link: routing.Link{From: 1, To: 2}, ToIsDest: true},
			{Link: routing.Link{From: 2, To: 3}, Perm: randPerm(rng, 6)},
			{Link: routing.Link{From: 3, To: 400}, Perm: randPerm(rng, 3)},
		},
		Removes:     randLinks(rng, 2),
		FailedLinks: randLinks(rng, 1),
	}
	compressed := CentaurUpdate{Adds: []pgraph.LinkInfo{{
		Link:    routing.Link{From: 1, To: 2},
		Filters: CompressPerm(append(bigPerm(5, 300), pgraph.PermEntry{Dest: 42, Next: 9}), 0.01),
	}}}
	bgp := BGPUpdate{Dest: 7, Path: routing.Path{3, 70000, 9, 7}, FailedLinks: []routing.Link{{From: 2, To: 3}}}
	ospf := OSPFLSA{Origin: 3, Seq: 1 << 20, Neighbors: []routing.NodeID{1, 2, 9, 300, 70000}}
	return []struct {
		name string
		size func() int
	}{
		{"centaur", func() int { return CentaurUpdateSize(explicit) }},
		{"centaur-bloom", func() int { return CentaurUpdateSize(compressed) }},
		{"bgp", func() int { return BGPUpdateSize(bgp) }},
		{"ospf", func() int { return OSPFLSASize(ospf) }},
	}
}

func TestWireSizeAllocatesNothing(t *testing.T) {
	for _, c := range sizeCases() {
		if allocs := testing.AllocsPerRun(100, func() { c.size() }); allocs != 0 {
			t.Errorf("%s: sizing allocates %.0f times", c.name, allocs)
		}
	}
}

// sizeSink keeps the benchmarked sizes live.
var sizeSink int

// BenchmarkWireSize times the sizing every simulated send pays.
func BenchmarkWireSize(b *testing.B) {
	for _, c := range sizeCases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sizeSink += c.size()
			}
		})
	}
}
