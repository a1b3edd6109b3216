// Package bloom provides a Bloom filter over node IDs. The paper (§4.1)
// suggests Bloom filters to compactly represent the destination lists
// inside Permission List entries; §5.2 assumes this compression when
// reporting Permission List sizes.
package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"centaur/internal/routing"
)

// Filter is a fixed-size Bloom filter over routing.NodeID values. It has
// no false negatives; the false-positive probability is set at
// construction time. The zero value is unusable — construct with New.
type Filter struct {
	bits []uint64
	m    uint64 // number of bits
	k    uint32 // number of hash functions
}

// New returns a filter sized for expectedN insertions at roughly the
// given false-positive rate fpRate (clamped to [1e-6, 0.5]). The classic
// sizing formulas m = -n·ln(p)/ln(2)² and k = m/n·ln(2) are used.
func New(expectedN int, fpRate float64) *Filter {
	if expectedN < 1 {
		expectedN = 1
	}
	if fpRate < 1e-6 {
		fpRate = 1e-6
	}
	if fpRate > 0.5 {
		fpRate = 0.5
	}
	ln2 := math.Ln2
	m := uint64(math.Ceil(-float64(expectedN) * math.Log(fpRate) / (ln2 * ln2)))
	if m < 64 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(expectedN) * ln2))
	if k < 1 {
		k = 1
	}
	return &Filter{
		bits: make([]uint64, (m+63)/64),
		m:    m,
		k:    k,
	}
}

// hashPair derives two independent 32-bit hashes of id; the k probe
// positions are the standard Kirsch–Mitzenmacher double-hash sequence
// h1 + i·h2.
func hashPair(id routing.NodeID) (uint32, uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(id))
	h := fnv.New64a()
	h.Write(buf[:]) //nolint:errcheck // fnv never fails
	sum := h.Sum64()
	h1 := uint32(sum)
	h2 := uint32(sum >> 32)
	if h2 == 0 {
		h2 = 0x9e3779b9 // ensure probes differ
	}
	return h1, h2
}

// Add inserts id into the filter and reports whether any bit changed:
// re-adding an ID already in the filter flips nothing.
func (f *Filter) Add(id routing.NodeID) bool {
	h1, h2 := hashPair(id)
	changed := false
	for i := uint32(0); i < f.k; i++ {
		bit := (uint64(h1) + uint64(i)*uint64(h2)) % f.m
		word, mask := bit/64, uint64(1)<<(bit%64)
		if f.bits[word]&mask == 0 {
			f.bits[word] |= mask
			changed = true
		}
	}
	return changed
}

// Has reports whether id may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Has(id routing.NodeID) bool {
	h1, h2 := hashPair(id)
	for i := uint32(0); i < f.k; i++ {
		bit := (uint64(h1) + uint64(i)*uint64(h2)) % f.m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBits returns the filter's bit-array size, i.e. the wire size a
// Bloom-compressed destination list would occupy.
func (f *Filter) SizeBits() uint64 { return f.m }

// Hashes returns the number of hash probes per operation.
func (f *Filter) Hashes() uint32 { return f.k }

// Bits returns the filter's bit array packed into 64-bit words (bit i
// is word i/64, position i%64); bits at positions ≥ SizeBits are always
// zero. The slice is the filter's own storage — callers must treat it
// as read-only. This is the payload a wire encoding serializes.
func (f *Filter) Bits() []uint64 { return f.bits }

// FromBits reconstructs a filter from its geometry and packed bit array
// (the inverse of Bits + SizeBits + Hashes), e.g. after decoding the
// wire form. The words slice is copied. It errors when the geometry is
// degenerate, the word count does not match m, or padding bits at
// positions ≥ m are set — the canonical encoding keeps them zero, and
// accepting them would break re-encode byte-stability.
func FromBits(m uint64, k uint32, words []uint64) (*Filter, error) {
	if m < 1 || k < 1 {
		return nil, fmt.Errorf("bloom: degenerate geometry m=%d k=%d", m, k)
	}
	if uint64(len(words)) != (m+63)/64 {
		return nil, fmt.Errorf("bloom: %d words cannot hold %d bits", len(words), m)
	}
	if rem := m % 64; rem != 0 && words[len(words)-1]>>rem != 0 {
		return nil, fmt.Errorf("bloom: nonzero padding bits beyond %d", m)
	}
	return &Filter{
		bits: append([]uint64(nil), words...),
		m:    m,
		k:    k,
	}, nil
}

// Clone returns an independent copy of the filter.
func (f *Filter) Clone() *Filter {
	out := *f
	out.bits = append([]uint64(nil), f.bits...)
	return &out
}

// Equal reports whether f and other have identical geometry and bit
// arrays (insert counts are bookkeeping, not filter state, and are
// ignored — a wire round trip loses them).
func (f *Filter) Equal(other *Filter) bool {
	if f == nil || other == nil {
		return f == other
	}
	if f.m != other.m || f.k != other.k || len(f.bits) != len(other.bits) {
		return false
	}
	for i, w := range f.bits {
		if other.bits[i] != w {
			return false
		}
	}
	return true
}
