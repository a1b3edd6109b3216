package wire

import (
	"bytes"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

// seedLinkInfo is a representative announcement for the fuzz corpus.
func seedLinkInfo() pgraph.LinkInfo {
	return pgraph.LinkInfo{
		Link:     routing.Link{From: 1, To: 2},
		ToIsDest: true,
		Perm:     []pgraph.PermEntry{{Dest: 3, Next: 4}, {Dest: 5, Next: routing.None}},
	}
}

// Fuzz targets: decoders must never panic, and a frame that decodes
// must be canonical — re-encoding the decoded value gives back exactly
// its bytes, and the size the writer counts for the value is its
// length. The second check pins the writer's two modes to each other.

// roundTrip fails t unless encode(v) is data and size(v) is len(data).
func roundTrip[T any](t *testing.T, data []byte, v T, encode func([]byte, T) []byte, size func(T) int) {
	t.Helper()
	if enc := encode(nil, v); !bytes.Equal(enc, data) {
		t.Fatalf("decode→encode changed the frame:\n got %x\nwant %x", enc, data)
	}
	if n := size(v); n != len(data) {
		t.Fatalf("sized %d bytes, frame has %d", n, len(data))
	}
}

func FuzzDecodeCentaurUpdate(f *testing.F) {
	f.Add([]byte{KindCentaurUpdate, 0, 0, 0})
	f.Add(AppendCentaurUpdate(nil, CentaurUpdate{}))
	seedUpdate := CentaurUpdate{}
	seedUpdate.Adds = append(seedUpdate.Adds, seedLinkInfo())
	f.Add(AppendCentaurUpdate(nil, seedUpdate))
	// Bloom-compressed Permission List frames: an explicit-form group, a
	// Bloom-form group (large destination set), and a hand-built minimal
	// Bloom group so the fuzzer starts with every tag on the wire.
	bloomSeed := CentaurUpdate{}
	li := seedLinkInfo()
	li.Filters = []pgraph.DestFilter{{Next: 4, Dests: []routing.NodeID{3, 5}}}
	bloomSeed.Adds = append(bloomSeed.Adds, li)
	big := pgraph.LinkInfo{Link: routing.Link{From: 2, To: 3}}
	var bigPL pgraph.PermissionList
	for i := 0; i < 200; i++ {
		bigPL.Add(routing.NodeID(100+i*3), 7)
	}
	big.Perm = bigPL.Pairs()
	big.Filters = CompressPerm(big.Perm, 0.01)
	bloomSeed.Adds = append(bloomSeed.Adds, big)
	f.Add(AppendCentaurUpdate(nil, bloomSeed))
	f.Add([]byte{KindCentaurUpdate, 1, 1, 2, 4, 1, 3, 1, 4, 1, 0x0f, 0, 0})
	// Adversarial frames (internal/adversary): a leak replay — an
	// un-rooted link chain whose Permission List excludes the leaked
	// origin — and a hijack fabrication, a dest-marked link with no
	// Permission List at all. Semantically bad but syntactically legal:
	// the decoder must reject canonically or decode cleanly, never
	// panic; containment is the receiver P-graph's job, not the wire's.
	leakSeed := CentaurUpdate{}
	leakSeed.Adds = append(leakSeed.Adds,
		pgraph.LinkInfo{Link: routing.Link{From: 40, To: 41},
			Perm: []pgraph.PermEntry{{Dest: 9, Next: 40}}},
		pgraph.LinkInfo{Link: routing.Link{From: 41, To: 42}},
		pgraph.LinkInfo{Link: routing.Link{From: 42, To: 43}, ToIsDest: true},
	)
	leakSeed.Removes = append(leakSeed.Removes, routing.Link{From: 2, To: 1})
	f.Add(AppendCentaurUpdate(nil, leakSeed))
	hijackSeed := CentaurUpdate{}
	hijackSeed.Adds = append(hijackSeed.Adds,
		pgraph.LinkInfo{Link: routing.Link{From: 7, To: 99}, ToIsDest: true})
	f.Add(AppendCentaurUpdate(nil, hijackSeed))
	f.Add([]byte{KindCentaurUpdate, 1, 1, 2, 8, 0, 0}) // unknown link flag
	f.Fuzz(func(t *testing.T, data []byte) {
		if u, err := DecodeCentaurUpdate(data); err == nil {
			roundTrip(t, data, u, AppendCentaurUpdate, CentaurUpdateSize)
		}
	})
}

func FuzzDecodeBGPUpdate(f *testing.F) {
	f.Add(AppendBGPUpdate(nil, BGPUpdate{Dest: 3}))
	f.Add([]byte{KindBGPUpdate, 0x83, 0x00, 0, 0}) // overlong varint
	f.Fuzz(func(t *testing.T, data []byte) {
		if u, err := DecodeBGPUpdate(data); err == nil {
			roundTrip(t, data, u, AppendBGPUpdate, BGPUpdateSize)
		}
	})
}

func FuzzDecodeTransportData(f *testing.F) {
	f.Add(AppendTransportData(nil, TransportData{Seq: 1}))
	f.Add(AppendTransportData(nil, TransportData{
		Seq:     7,
		Payload: AppendBGPUpdate(nil, BGPUpdate{Dest: 3, Path: routing.Path{1, 2, 3}}),
	}))
	f.Add([]byte{KindTransportData, 1, 0xff}) // implausible payload length
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := DecodeTransportData(data); err == nil {
			roundTrip(t, data, fr, AppendTransportData, func(fr TransportData) int {
				return TransportDataSize(fr.Seq, len(fr.Payload))
			})
		}
	})
}

func FuzzDecodeTransportAck(f *testing.F) {
	f.Add(AppendTransportAck(nil, TransportAck{Seq: 12}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, err := DecodeTransportAck(data); err == nil {
			roundTrip(t, data, a, AppendTransportAck, func(a TransportAck) int { return TransportAckSize(a.Seq) })
		}
	})
}

func FuzzDecodeBFDControl(f *testing.F) {
	f.Add(AppendBFDControl(nil, BFDControl{State: BFDStateDown, Remaining: 0}))
	f.Add(AppendBFDControl(nil, BFDControl{State: BFDStateInit, Remaining: 0}))
	f.Add(AppendBFDControl(nil, BFDControl{State: BFDStateUp, Remaining: 3}))
	f.Add([]byte{KindBFDControl, 0, 0})          // invalid state 0
	f.Add([]byte{KindBFDControl, 4, 0})          // invalid state 4
	f.Add([]byte{KindBFDControl, 3})             // truncated
	f.Add([]byte{KindBFDControl, 3, 1, 1})       // trailing byte
	f.Add([]byte{KindBFDControl, 3, 0x80, 1})    // two-byte varint: 128
	f.Add([]byte{KindBFDControl, 0x81, 0x00, 0}) // overlong varint
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := DecodeBFDControl(data); err == nil {
			roundTrip(t, data, c, AppendBFDControl, BFDControlSize)
		}
	})
}

func FuzzDecodeOSPFLSA(f *testing.F) {
	f.Add(AppendOSPFLSA(nil, OSPFLSA{Origin: 1, Seq: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if l, err := DecodeOSPFLSA(data); err == nil {
			roundTrip(t, data, l, AppendOSPFLSA, OSPFLSASize)
		}
	})
}
