// External test package on purpose: sim imports only routing and
// topology (TestLayering), so reliable.go duplicates the transport-frame
// size math. This test pins the duplicate to the real encoder.
package sim_test

import (
	"testing"

	"centaur/internal/sim"
	"centaur/internal/wire"
)

type sizedMsg struct{ bytes int }

func (m sizedMsg) Kind() string   { return "test.sized" }
func (m sizedMsg) Units() int     { return 1 }
func (m sizedMsg) WireBytes() int { return m.bytes }

func TestTransportSizesMatchWire(t *testing.T) {
	seqs := []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1}
	payloadLens := []int{0, 1, 127, 128, 300, 1 << 16}
	for _, seq := range seqs {
		for _, pl := range payloadLens {
			f := sim.DataFrame{Seq: seq, Payload: sizedMsg{bytes: pl}}
			want := wire.TransportDataSize(seq, pl)
			if got := f.WireBytes(); got != want {
				t.Errorf("DataFrame{Seq:%d, payload %dB}.WireBytes() = %d, wire says %d", seq, pl, got, want)
			}
		}
		a := sim.Ack{Seq: seq}
		if got, want := a.WireBytes(), wire.TransportAckSize(seq); got != want {
			t.Errorf("Ack{Seq:%d}.WireBytes() = %d, wire says %d", seq, got, want)
		}
	}
	// The duplicated kind constants must match wire's: encode a frame and
	// check its first byte (both kinds are single-byte uvarints).
	if b := wire.AppendTransportData(nil, wire.TransportData{}); b[0] != wire.KindTransportData {
		t.Fatalf("transport data kind byte = %d", b[0])
	}
	if wire.KindTransportData != 4 || wire.KindTransportAck != 5 {
		t.Errorf("wire transport kinds moved (data=%d ack=%d); update reliable.go's mirrors", wire.KindTransportData, wire.KindTransportAck)
	}
}
