// Package wire defines a compact binary encoding for the three
// protocols' messages, so the evaluation can report bytes-on-the-wire in
// addition to abstract message/unit counts. The paper compares "message
// counts" whose units differ per protocol (per-destination updates for
// BGP, per-link announcements for Centaur, per-LSA floods for OSPF);
// byte counts are the common currency that makes the comparison
// unit-free: BGP updates carry full AS paths, Centaur updates carry
// links plus Permission Lists, LSAs carry adjacency lists.
//
// The format is deterministic (field order fixed, Permission List pairs
// in canonical order) and self-delimiting, built from unsigned varints:
//
//	message   := kind:uvarint body
//	kind      := 1 (centaur update) | 2 (bgp update) | 3 (ospf lsa)
//	           | 4 (transport data) | 5 (transport ack) | 6 (bfd control)
//
// Each kind's layout is written once, as a method of writer, which
// either appends the bytes (Append*) or only counts them (*Size), so a
// size cannot drift from the encoding. Decoding validates structure,
// fails on truncated or trailing input and accepts only the canonical
// frames the encoder produces: encode→decode and decode→encode are both
// the identity (property-tested and fuzzed).
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"centaur/internal/bloom"
	"centaur/internal/pgraph"
	"centaur/internal/routing"
)

// Message kinds.
const (
	// KindCentaurUpdate tags a Centaur link-state delta.
	KindCentaurUpdate = 1
	// KindBGPUpdate tags a BGP announce/withdraw.
	KindBGPUpdate = 2
	// KindOSPFLSA tags an OSPF router LSA flood.
	KindOSPFLSA = 3
	// KindTransportData tags a reliable-transport data frame: a sequence
	// number plus an opaque encoded protocol message (see sim.Reliable).
	KindTransportData = 4
	// KindTransportAck tags a reliable-transport cumulative ack.
	KindTransportAck = 5
	// KindBFDControl tags a liveness-detection session control frame
	// (see internal/liveness).
	KindBFDControl = 6
)

// BFD session states on the wire (RFC 5880's three-state FSM; AdminDown
// is not modeled). Zero is deliberately invalid so an uninitialized
// frame cannot decode.
const (
	BFDStateDown = 1
	BFDStateInit = 2
	BFDStateUp   = 3
)

// CentaurUpdate is the wire form of a Centaur routing update: the delta
// of the sender's exported view plus root cause notifications.
// (Mirrors centaur.Update without importing it, so the protocol package
// can depend on wire for sizing.)
type CentaurUpdate struct {
	Adds        []pgraph.LinkInfo
	Removes     []routing.Link
	FailedLinks []routing.Link
}

// BGPUpdate is the wire form of a single-destination BGP update; a nil
// Path is a withdrawal. FailedLinks carries BGP-RCN root cause
// notifications (empty in plain BGP).
type BGPUpdate struct {
	Dest        routing.NodeID
	Path        routing.Path
	FailedLinks []routing.Link
}

// OSPFLSA is the wire form of a router LSA.
type OSPFLSA struct {
	Origin    routing.NodeID
	Seq       uint64
	Neighbors []routing.NodeID
}

// AppendCentaurUpdate appends the encoded update to buf. A LinkInfo
// carrying a Bloom-compressed Permission List (Filters, §4.1)
// serializes only that form — the explicit pairs are the sender's local
// oracle and stay off the wire; otherwise the explicit grouped pairs
// are encoded. Each LinkInfo's Perm must be in the canonical (Next,
// Dest) order pgraph produces.
func AppendCentaurUpdate(buf []byte, u CentaurUpdate) []byte {
	return appending(buf).centaurUpdate(u).buf
}

// CentaurUpdateSize returns len(AppendCentaurUpdate(nil, u)) without
// allocating.
func CentaurUpdateSize(u CentaurUpdate) int { return sizing().centaurUpdate(u).n }

// AppendBGPUpdate appends the encoded update to buf.
func AppendBGPUpdate(buf []byte, u BGPUpdate) []byte { return appending(buf).bgpUpdate(u).buf }

// BGPUpdateSize returns len(AppendBGPUpdate(nil, u)) without allocating.
func BGPUpdateSize(u BGPUpdate) int { return sizing().bgpUpdate(u).n }

// AppendOSPFLSA appends the encoded LSA to buf.
func AppendOSPFLSA(buf []byte, l OSPFLSA) []byte { return appending(buf).ospfLSA(l).buf }

// OSPFLSASize returns len(AppendOSPFLSA(nil, l)) without allocating.
func OSPFLSASize(l OSPFLSA) int { return sizing().ospfLSA(l).n }

// PermWireLen returns the encoded length of a Permission List in the
// grouped explicit form. perm must be in the canonical (Next, Dest)
// order pgraph produces.
func PermWireLen(perm []pgraph.PermEntry) int { return sizing().perm(perm).n }

// FiltersWireLen returns the encoded length of a Bloom-compressed
// Permission List.
func FiltersWireLen(fs []pgraph.DestFilter) int { return sizing().filters(fs).n }

// CompressPerm converts canonical (Next, Dest)-sorted Permission List
// pairs into the §4.1 compressed form. Each next-hop group gets a Bloom
// filter sized for its destination count at fpRate when that is smaller
// on the wire than the explicit destination list; small groups (the
// common case per Table 5) keep the explicit form. The decision is then
// made once more for the list as a whole: the compressed container pays
// a form-tag byte per group, so unless the filtered groups save more
// than the tags cost CompressPerm returns nil and the sender keeps the
// explicit form. A non-nil result is therefore always strictly smaller
// on the wire than the explicit list it replaces.
func CompressPerm(perm []pgraph.PermEntry, fpRate float64) []pgraph.DestFilter {
	if len(perm) == 0 {
		return nil
	}
	var out []pgraph.DestFilter
	for i := 0; i < len(perm); {
		j := runEnd(perm, i)
		dests := make([]routing.NodeID, 0, j-i)
		for _, e := range perm[i:j] {
			dests = append(dests, e.Dest)
		}
		explicit := pgraph.DestFilter{Next: perm[i].Next, Dests: dests}
		fl := bloom.New(len(dests), fpRate)
		for _, d := range dests {
			fl.Add(d)
		}
		compressed := pgraph.DestFilter{Next: perm[i].Next, Filter: fl}
		if sizing().filterGroup(compressed).n < sizing().filterGroup(explicit).n {
			out = append(out, compressed)
		} else {
			out = append(out, explicit)
		}
		i = j
	}
	if FiltersWireLen(out) >= PermWireLen(perm) {
		return nil
	}
	return out
}

// DecodeCentaurUpdate decodes an update produced by AppendCentaurUpdate.
func DecodeCentaurUpdate(buf []byte) (CentaurUpdate, error) {
	d := decoder{buf: buf}
	var u CentaurUpdate
	if kind := d.uvarint(); kind != KindCentaurUpdate {
		return u, fmt.Errorf("wire: kind %d is not a centaur update", kind)
	}
	nAdds := d.count()
	u.Adds = make([]pgraph.LinkInfo, 0, d.capFor(nAdds, 3))
	for i := uint64(0); i < nAdds && d.err == nil; i++ {
		var li pgraph.LinkInfo
		li.Link = d.link()
		flags := d.uvarint()
		li.ToIsDest = flags&flagToIsDest != 0
		if flags&^(flagToIsDest|flagPerm|flagFilters) != 0 {
			d.fail("unknown link flags")
		}
		if flags&flagPerm != 0 && flags&flagFilters != 0 {
			d.fail("conflicting permission list encodings")
		}
		if flags&flagPerm != 0 {
			li.Perm = d.perm()
		}
		if flags&flagFilters != 0 {
			li.Filters = d.filters()
		}
		u.Adds = append(u.Adds, li)
	}
	if len(u.Adds) == 0 {
		u.Adds = nil
	}
	u.Removes = d.links()
	u.FailedLinks = d.links()
	return u, d.finish()
}

// DecodeBGPUpdate decodes an update produced by AppendBGPUpdate.
func DecodeBGPUpdate(buf []byte) (BGPUpdate, error) {
	d := decoder{buf: buf}
	var u BGPUpdate
	if kind := d.uvarint(); kind != KindBGPUpdate {
		return u, fmt.Errorf("wire: kind %d is not a bgp update", kind)
	}
	u.Dest = d.node()
	u.Path = d.nodes()
	u.FailedLinks = d.links()
	return u, d.finish()
}

// DecodeOSPFLSA decodes an LSA produced by AppendOSPFLSA.
func DecodeOSPFLSA(buf []byte) (OSPFLSA, error) {
	d := decoder{buf: buf}
	var l OSPFLSA
	if kind := d.uvarint(); kind != KindOSPFLSA {
		return l, fmt.Errorf("wire: kind %d is not an ospf lsa", kind)
	}
	l.Origin = d.node()
	l.Seq = d.uvarint()
	l.Neighbors = d.nodes()
	return l, d.finish()
}

// TransportData is the wire form of a reliable-transport data frame:
// the per-neighbor-session sequence number and the encoded protocol
// message it carries (opaque at this layer — any of the other kinds).
type TransportData struct {
	Seq     uint64
	Payload []byte
}

// TransportAck is the wire form of a reliable-transport cumulative
// acknowledgement: every frame with sequence number ≤ Seq has been
// received in order.
type TransportAck struct {
	Seq uint64
}

// AppendTransportData appends the encoded data frame to buf.
func AppendTransportData(buf []byte, f TransportData) []byte {
	return appending(buf).transportData(f.Seq, len(f.Payload), f.Payload).buf
}

// TransportDataSize returns len(AppendTransportData(nil, f)) for a frame
// with the given sequence number and payload length, without allocating.
func TransportDataSize(seq uint64, payloadLen int) int {
	return sizing().transportData(seq, payloadLen, nil).n
}

// DecodeTransportData decodes a frame produced by AppendTransportData.
func DecodeTransportData(buf []byte) (TransportData, error) {
	d := decoder{buf: buf}
	var f TransportData
	if kind := d.uvarint(); kind != KindTransportData {
		return f, fmt.Errorf("wire: kind %d is not a transport data frame", kind)
	}
	f.Seq = d.uvarint()
	n := d.count()
	if d.err == nil {
		if uint64(len(d.buf)) < n {
			d.fail("truncated transport payload")
		} else {
			f.Payload = append([]byte(nil), d.buf[:n]...)
			d.buf = d.buf[n:]
		}
	}
	return f, d.finish()
}

// AppendTransportAck appends the encoded ack to buf.
func AppendTransportAck(buf []byte, a TransportAck) []byte {
	return appending(buf).transportAck(a.Seq).buf
}

// TransportAckSize returns len(AppendTransportAck(nil, a)) without
// allocating.
func TransportAckSize(seq uint64) int { return sizing().transportAck(seq).n }

// DecodeTransportAck decodes an ack produced by AppendTransportAck.
func DecodeTransportAck(buf []byte) (TransportAck, error) {
	d := decoder{buf: buf}
	var a TransportAck
	if kind := d.uvarint(); kind != KindTransportAck {
		return a, fmt.Errorf("wire: kind %d is not a transport ack", kind)
	}
	a.Seq = d.uvarint()
	return a, d.finish()
}

// BFDControl is the wire form of one liveness-session control frame:
// the sender's session FSM state and, for up-state confirmation frames,
// how many more frames the sender's current transmit schedule will emit
// (0 = this is the final frame before the session goes quiet; see
// internal/liveness for the schedule semantics).
type BFDControl struct {
	State     uint8
	Remaining uint32
}

// AppendBFDControl appends the encoded control frame to buf.
func AppendBFDControl(buf []byte, c BFDControl) []byte {
	return appending(buf).bfdControl(c).buf
}

// BFDControlSize returns len(AppendBFDControl(nil, c)) without
// allocating.
func BFDControlSize(c BFDControl) int { return sizing().bfdControl(c).n }

// DecodeBFDControl decodes a frame produced by AppendBFDControl. Only
// canonical frames are accepted: the state must be one of the three FSM
// states and the remaining count plausible, so decode→re-encode is the
// identity on anything that decodes.
func DecodeBFDControl(buf []byte) (BFDControl, error) {
	d := decoder{buf: buf}
	var c BFDControl
	if kind := d.uvarint(); kind != KindBFDControl {
		return c, fmt.Errorf("wire: kind %d is not a bfd control frame", kind)
	}
	s := d.uvarint()
	if d.err == nil && (s < BFDStateDown || s > BFDStateUp) {
		d.fail("invalid bfd session state")
	}
	r := d.uvarint()
	if d.err == nil && r > maxCount {
		d.fail("implausible bfd remaining count")
	}
	if d.err == nil {
		c.State = uint8(s)
		c.Remaining = uint32(r)
	}
	return c, d.finish()
}

// writer lays out a message. An appending writer adds the encoded bytes
// to buf; a sizing writer only counts them in n and never allocates.
// Each message kind has one layout method, which returns its writer so
// that every Append* and *Size above is one expression over it.
type writer struct {
	buf    []byte
	n      int
	sizing bool
}

// appending returns a writer that appends to buf.
func appending(buf []byte) *writer { return &writer{buf: buf} }

// sizing returns a writer that only counts bytes.
func sizing() *writer { return &writer{sizing: true} }

func (w *writer) uvarint(v uint64) {
	if w.sizing {
		w.n += (bits.Len64(v|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, v)
}

// raw writes p verbatim; a sizing writer counts n = len(p) bytes
// without reading p.
func (w *writer) raw(p []byte, n int) {
	if w.sizing {
		w.n += n
		return
	}
	w.buf = append(w.buf, p...)
}

// bitArray writes the first nBytes bytes of words, little-endian.
func (w *writer) bitArray(words []uint64, nBytes int) {
	if w.sizing {
		w.n += nBytes
		return
	}
	for i := 0; i < nBytes; i++ {
		w.buf = append(w.buf, byte(words[i/8]>>(8*(i%8))))
	}
}

func (w *writer) node(n routing.NodeID) { w.uvarint(uint64(n)) }

// nodes writes a length-prefixed node list.
func (w *writer) nodes(ids []routing.NodeID) {
	w.uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.node(id)
	}
}

func (w *writer) link(l routing.Link) {
	w.node(l.From)
	w.node(l.To)
}

// links writes a length-prefixed link list.
func (w *writer) links(links []routing.Link) {
	w.uvarint(uint64(len(links)))
	for _, l := range links {
		w.link(l)
	}
}

// Link flags of a Centaur update's announcement; the decoder rejects
// any other bit.
const (
	flagToIsDest = 1 << iota
	flagPerm     // the grouped explicit Permission List follows
	flagFilters  // the Bloom-compressed Permission List follows
)

func (w *writer) centaurUpdate(u CentaurUpdate) *writer {
	w.uvarint(KindCentaurUpdate)
	w.uvarint(uint64(len(u.Adds)))
	for i := range u.Adds {
		li := &u.Adds[i]
		w.link(li.Link)
		flags := uint64(0)
		if li.ToIsDest {
			flags = flagToIsDest
		}
		switch {
		case len(li.Filters) > 0:
			w.uvarint(flags | flagFilters)
			w.filters(li.Filters)
		case len(li.Perm) > 0:
			w.uvarint(flags | flagPerm)
			w.perm(li.Perm)
		default:
			w.uvarint(flags)
		}
	}
	w.links(u.Removes)
	w.links(u.FailedLinks)
	return w
}

// runEnd returns the end of the next-hop group starting at perm[i].
func runEnd(perm []pgraph.PermEntry, i int) int {
	j := i + 1
	for j < len(perm) && perm[j].Next == perm[i].Next {
		j++
	}
	return j
}

// perm writes Permission List pairs in the grouped per-dest-next form
// (§4.1): a group count, then per group the next hop, a destination
// count and the destinations. Precondition: perm is in the canonical
// (Next, Dest) order pgraph produces, so each group is one contiguous
// run and the runs come out in the order the decoder requires.
func (w *writer) perm(perm []pgraph.PermEntry) *writer {
	groups := 0
	for i, e := range perm {
		if i == 0 || e.Next != perm[i-1].Next {
			groups++
		}
	}
	w.uvarint(uint64(groups))
	for i := 0; i < len(perm); {
		j := runEnd(perm, i)
		w.node(perm[i].Next)
		w.uvarint(uint64(j - i))
		for _, e := range perm[i:j] {
			w.node(e.Dest)
		}
		i = j
	}
	return w
}

// filters writes a Bloom-compressed Permission List (§4.1): a group
// count, then each group. The groups must be in ascending next-hop
// order, as CompressPerm produces them.
func (w *writer) filters(fs []pgraph.DestFilter) *writer {
	w.uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.filterGroup(f)
	}
	return w
}

// filterGroup writes one compressed group: its next hop and a form tag,
// 0 for an explicit sorted destination list, 1 for a Bloom filter's
// geometry followed by its bit array packed into ⌈m/8⌉ little-endian
// bytes (padding bits beyond m are zero, which decode enforces for
// re-encode stability).
func (w *writer) filterGroup(f pgraph.DestFilter) *writer {
	w.node(f.Next)
	if f.Filter == nil {
		w.uvarint(0)
		w.nodes(f.Dests)
		return w
	}
	m := f.Filter.SizeBits()
	w.uvarint(1)
	w.uvarint(m)
	w.uvarint(uint64(f.Filter.Hashes()))
	w.bitArray(f.Filter.Bits(), int((m+7)/8))
	return w
}

func (w *writer) bgpUpdate(u BGPUpdate) *writer {
	w.uvarint(KindBGPUpdate)
	w.node(u.Dest)
	w.nodes(u.Path)
	w.links(u.FailedLinks)
	return w
}

func (w *writer) ospfLSA(l OSPFLSA) *writer {
	w.uvarint(KindOSPFLSA)
	w.node(l.Origin)
	w.uvarint(l.Seq)
	w.nodes(l.Neighbors)
	return w
}

// transportData writes a data frame whose payload is payloadLen bytes
// long; a sizing writer needs only the length, not the payload.
func (w *writer) transportData(seq uint64, payloadLen int, payload []byte) *writer {
	w.uvarint(KindTransportData)
	w.uvarint(seq)
	w.uvarint(uint64(payloadLen))
	w.raw(payload, payloadLen)
	return w
}

func (w *writer) transportAck(seq uint64) *writer {
	w.uvarint(KindTransportAck)
	w.uvarint(seq)
	return w
}

func (w *writer) bfdControl(c BFDControl) *writer {
	w.uvarint(KindBFDControl)
	w.uvarint(uint64(c.State))
	w.uvarint(uint64(c.Remaining))
	return w
}

// maxCount bounds decoded collection sizes to keep malformed input from
// forcing huge allocations.
const maxCount = 1 << 24

// decoder is a cursor over an encoded message with sticky errors.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s", msg)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	// A final byte of zero after a continuation is padding the encoder
	// never writes: accepting it would let two frames decode alike.
	if n > 1 && d.buf[n-1] == 0 {
		d.fail("overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) count() uint64 {
	v := d.uvarint()
	if v > maxCount {
		d.fail("implausible collection size")
		return 0
	}
	return v
}

func (d *decoder) node() routing.NodeID {
	v := d.uvarint()
	if v > uint64(^uint32(0)) {
		d.fail("node id out of range")
		return routing.None
	}
	return routing.NodeID(v)
}

// nodes decodes a length-prefixed node list; an empty one is nil.
func (d *decoder) nodes() []routing.NodeID {
	var out []routing.NodeID
	for n, i := d.count(), uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.node())
	}
	return out
}

func (d *decoder) link() routing.Link {
	return routing.Link{From: d.node(), To: d.node()}
}

// capFor bounds a preallocation by what the remaining buffer could
// possibly hold: each element of the collection costs at least minBytes
// encoded bytes, so a claimed count above len(buf)/minBytes is already
// doomed to fail decoding. Well-formed input gets its exact capacity in
// one allocation; malformed counts cannot force huge ones.
func (d *decoder) capFor(n uint64, minBytes int) int {
	if max := uint64(len(d.buf) / minBytes); n > max {
		n = max
	}
	return int(n)
}

func (d *decoder) links() []routing.Link {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]routing.Link, 0, d.capFor(n, 2))
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.link())
	}
	return out
}

// ascending decodes a count-prefixed list of node IDs that must be
// non-empty and strictly ascending — the canonical order of a
// Permission List's next-hop groups and of each group's destinations —
// and hands each ID to each, which decodes whatever follows it. Frames
// with duplicate, out-of-order or empty lists are rejected: accepting
// them would let decode→re-encode change bytes.
func (d *decoder) ascending(what string, each func(routing.NodeID)) {
	n := d.count()
	if n == 0 && d.err == nil {
		d.fail("empty " + what)
	}
	var prev routing.NodeID
	for i := uint64(0); i < n && d.err == nil; i++ {
		id := d.node()
		if i > 0 && id <= prev {
			d.fail(what + " not in canonical order")
		}
		prev = id
		each(id)
	}
}

// perm decodes a grouped explicit Permission List.
func (d *decoder) perm() []pgraph.PermEntry {
	var out []pgraph.PermEntry
	d.ascending("permission list", func(next routing.NodeID) {
		d.ascending("permission group", func(dest routing.NodeID) {
			out = append(out, pgraph.PermEntry{Dest: dest, Next: next})
		})
	})
	return out
}

// maxFilterBits bounds a decoded Bloom filter's bit-array size
// (2 MiB of bits) for the same reason maxCount bounds counts.
const maxFilterBits = 1 << 24

// filters decodes a Bloom-compressed Permission List. The same
// canonical-form rules as perm apply to group order and explicit
// groups; Bloom groups must have plausible geometry and zero padding
// bits (bloom.FromBits enforces the latter).
func (d *decoder) filters() []pgraph.DestFilter {
	var out []pgraph.DestFilter
	d.ascending("filter list", func(next routing.NodeID) {
		f := pgraph.DestFilter{Next: next}
		switch tag := d.uvarint(); {
		case d.err != nil:
		case tag == 0:
			d.ascending("filter group", func(dest routing.NodeID) { f.Dests = append(f.Dests, dest) })
		case tag == 1:
			f.Filter = d.bloomFilter()
		default:
			d.fail("unknown filter group form")
		}
		out = append(out, f)
	})
	return out
}

// bloomFilter decodes a Bloom group's geometry and bit array.
func (d *decoder) bloomFilter() *bloom.Filter {
	m := d.uvarint()
	if d.err == nil && (m == 0 || m > maxFilterBits) {
		d.fail("implausible filter size")
	}
	k := d.uvarint()
	if d.err == nil && (k == 0 || k > 255) {
		d.fail("implausible filter hash count")
	}
	words := d.filterBits(m)
	if d.err != nil {
		return nil
	}
	fl, err := bloom.FromBits(m, uint32(k), words)
	if err != nil {
		d.fail(err.Error())
	}
	return fl
}

// filterBits reads ⌈m/8⌉ bytes into the word layout bloom.FromBits
// expects.
func (d *decoder) filterBits(m uint64) []uint64 {
	if d.err != nil {
		return nil
	}
	nBytes := int((m + 7) / 8)
	if len(d.buf) < nBytes {
		d.fail("truncated filter bit array")
		return nil
	}
	words := make([]uint64, (m+63)/64)
	for i := 0; i < nBytes; i++ {
		words[i/8] |= uint64(d.buf[i]) << (8 * (i % 8))
	}
	d.buf = d.buf[nBytes:]
	return words
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}
