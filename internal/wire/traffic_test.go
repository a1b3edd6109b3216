package wire_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/policy"
	"centaur/internal/prototest"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
	"centaur/internal/wire"
)

// TestCodecOnSimulatedTraffic runs the codec on every message simulated
// networks send: each protocol behind the reliable transport and
// liveness detection, from a cold start through link flaps. At every
// send the encoding must be exactly WireBytes() long and must decode to
// a value that re-encodes to the same bytes; at every delivery the
// message must still encode to the bytes it had when it was sent
// (messages are immutable after Send).
func TestCodecOnSimulatedTraffic(t *testing.T) {
	small, err := topogen.BRITE(30, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	cones := multihomedCone(t, 60)
	pol := policy.GaoRexford{TieBreak: policy.TieOverride}
	for _, tc := range []struct {
		name  string
		g     *topology.Graph
		build sim.Builder
	}{
		{"centaur", small, centaur.New(centaur.Config{Policy: pol})},
		{"centaur-bloom", cones, centaur.New(centaur.Config{Policy: pol, BloomPL: true, PLFPRate: 0.5})},
		{"bgp-rcn", small, bgp.New(bgp.Config{Policy: pol, RCN: true})},
		{"ospf", small, ospf.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := liveness.Wrap(sim.Reliable(tc.build, sim.ReliableConfig{}),
				liveness.Config{TxInterval: 2 * time.Millisecond, DetectMult: 3})
			net, err := sim.NewNetwork(sim.Config{
				Topology: tc.g, Build: build,
				MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond, DelaySeed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sent := make(map[uint64][]byte) // send span -> bytes at send time
			frames := make(map[byte]int)    // by wire kind
			filters := 0                    // Centaur announcements carrying a compressed list
			net.Observe(func(ev sim.TraceEvent) {
				switch ev.Kind {
				case sim.TraceSend:
					enc := encode(t, ev.Msg)
					if n := ev.Msg.(sim.ByteSizer).WireBytes(); n != len(enc) {
						t.Fatalf("%s: WireBytes() = %d, encoding has %d bytes", ev.Msg.Kind(), n, len(enc))
					}
					re, err := reencode(enc)
					if err != nil {
						t.Fatalf("%s: %x does not decode: %v", ev.Msg.Kind(), enc, err)
					}
					if !bytes.Equal(re, enc) {
						t.Fatalf("%s: decode→encode changed the frame:\n got %x\nwant %x", ev.Msg.Kind(), re, enc)
					}
					sent[ev.Span] = enc
					frames[enc[0]]++
					if df, ok := ev.Msg.(sim.DataFrame); ok {
						if u, ok := df.Payload.(centaur.Update); ok {
							for _, li := range u.Delta.Adds {
								if li.Filters != nil {
									filters++
								}
							}
						}
					}
				case sim.TraceDeliver:
					want, ok := sent[ev.Parent]
					if !ok {
						t.Fatalf("%s delivered without a send", ev.Msg.Kind())
					}
					if got := encode(t, ev.Msg); !bytes.Equal(got, want) {
						t.Fatalf("%s changed between send and delivery:\n got %x\nwant %x", ev.Msg.Kind(), got, want)
					}
					delete(sent, ev.Parent)
				}
			})
			prototest.Flaps{MaxDown: 2}.Run(t, net, tc.g)
			for _, k := range []byte{wire.KindTransportData, wire.KindTransportAck, wire.KindBFDControl} {
				if frames[k] == 0 {
					t.Errorf("no frame of kind %d was sent: %v", k, frames)
				}
			}
			if bloom := tc.g == cones; bloom != (filters > 0) {
				t.Errorf("%d announcements carried a compressed Permission List", filters)
			}
		})
	}
}

// multihomedCone returns a graph in which CompressPerm pays: node 2,
// a customer of node 1, reaches a customer cone of k leaves through two
// customers, 3 and 4, that share the cone's multi-homed root 5. The
// override tie-break picks 3 or 4 per leaf by hash, so the Permission
// Lists node 2 announces on 3→5 and 4→5 each carry one next-hop group
// of about k/2 destinations: at fp target 0.5 a Bloom filter of it is
// smaller than the explicit list.
func multihomedCone(t *testing.T, k int) *topology.Graph {
	g := topology.NewGraph(6 + k)
	add := func(provider, customer routing.NodeID) {
		if err := g.AddEdge(provider, customer, topology.RelCustomer); err != nil {
			t.Fatal(err)
		}
	}
	add(1, 2)
	add(2, 3)
	add(2, 4)
	add(3, 5)
	add(4, 5)
	add(5, 6)
	for i := 0; i < k; i++ {
		add(6, routing.NodeID(7+i))
	}
	return g
}

// encode returns msg's wire encoding.
func encode(t *testing.T, msg sim.Message) []byte {
	switch m := msg.(type) {
	case centaur.Update:
		return wire.AppendCentaurUpdate(nil, wire.CentaurUpdate{Adds: m.Delta.Adds, Removes: m.Delta.Removes, FailedLinks: m.FailedLinks})
	case bgp.Update:
		return wire.AppendBGPUpdate(nil, wire.BGPUpdate{Dest: m.Dest, Path: m.Path, FailedLinks: m.FailedLinks})
	case ospf.Flood:
		return wire.AppendOSPFLSA(nil, wire.OSPFLSA{Origin: m.LSA.Origin, Seq: m.LSA.Seq, Neighbors: m.LSA.Neighbors})
	case sim.DataFrame:
		return wire.AppendTransportData(nil, wire.TransportData{Seq: m.Seq, Payload: encode(t, m.Payload)})
	case sim.Ack:
		return wire.AppendTransportAck(nil, wire.TransportAck{Seq: m.Seq})
	case liveness.ControlFrame:
		return wire.AppendBFDControl(nil, wire.BFDControl{State: uint8(m.State), Remaining: m.Remaining})
	}
	t.Fatalf("no wire encoding for %T", msg)
	return nil
}

// reencode decodes a frame of any kind, its transport payload included,
// and encodes the decoded value again.
func reencode(buf []byte) ([]byte, error) {
	kind, _ := binary.Uvarint(buf)
	switch kind {
	case wire.KindCentaurUpdate:
		u, err := wire.DecodeCentaurUpdate(buf)
		return wire.AppendCentaurUpdate(nil, u), err
	case wire.KindBGPUpdate:
		u, err := wire.DecodeBGPUpdate(buf)
		return wire.AppendBGPUpdate(nil, u), err
	case wire.KindOSPFLSA:
		l, err := wire.DecodeOSPFLSA(buf)
		return wire.AppendOSPFLSA(nil, l), err
	case wire.KindTransportData:
		f, err := wire.DecodeTransportData(buf)
		if err != nil {
			return nil, err
		}
		if f.Payload, err = reencode(f.Payload); err != nil {
			return nil, err
		}
		return wire.AppendTransportData(nil, f), nil
	case wire.KindTransportAck:
		a, err := wire.DecodeTransportAck(buf)
		return wire.AppendTransportAck(nil, a), err
	case wire.KindBFDControl:
		c, err := wire.DecodeBFDControl(buf)
		return wire.AppendBFDControl(nil, c), err
	}
	return nil, fmt.Errorf("unknown kind %d", kind)
}
