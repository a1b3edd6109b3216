package bloom

import (
	"math/rand"
	"testing"
	"testing/quick"

	"centaur/internal/routing"
)

func TestNoFalseNegativesProperty(t *testing.T) {
	// DESIGN.md invariant 6: anything added is always found.
	f := func(ids []uint32) bool {
		fl := New(len(ids)+1, 0.01)
		for _, id := range ids {
			fl.Add(routing.NodeID(id))
		}
		for _, id := range ids {
			if !fl.Has(routing.NodeID(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n, fp = 2000, 0.01
	fl := New(n, fp)
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[routing.NodeID]bool, n)
	for len(inserted) < n {
		id := routing.NodeID(rng.Uint32()%10_000_000 + 1)
		if !inserted[id] {
			inserted[id] = true
			fl.Add(id)
		}
	}
	falsePos, probes := 0, 0
	for probes < 20000 {
		id := routing.NodeID(rng.Uint32()%10_000_000 + 1)
		if inserted[id] {
			continue
		}
		probes++
		if fl.Has(id) {
			falsePos++
		}
	}
	rate := float64(falsePos) / float64(probes)
	if rate > fp*4 {
		t.Fatalf("observed FP rate %.4f far above target %.4f", rate, fp)
	}
}

func TestEmptyFilterHasNothing(t *testing.T) {
	fl := New(100, 0.01)
	hits := 0
	for id := routing.NodeID(1); id <= 1000; id++ {
		if fl.Has(id) {
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("empty filter reported %d members", hits)
	}
}

func TestParameterClamping(t *testing.T) {
	for _, tc := range []struct {
		n  int
		fp float64
	}{
		{0, 0.01}, {-5, 0.01}, {10, 0}, {10, 1.5}, {1, 1e-12},
	} {
		fl := New(tc.n, tc.fp)
		if fl.SizeBits() < 64 || fl.Hashes() < 1 {
			t.Fatalf("New(%d, %g) produced degenerate filter", tc.n, tc.fp)
		}
		fl.Add(7)
		if !fl.Has(7) {
			t.Fatalf("New(%d, %g) lost an element", tc.n, tc.fp)
		}
	}
}

func TestSizingMonotonicity(t *testing.T) {
	small := New(100, 0.01)
	big := New(10000, 0.01)
	if big.SizeBits() <= small.SizeBits() {
		t.Fatal("more elements must need more bits")
	}
	loose := New(1000, 0.1)
	tight := New(1000, 0.001)
	if tight.SizeBits() <= loose.SizeBits() {
		t.Fatal("tighter FP rate must need more bits")
	}
}

func TestCountAndEstimate(t *testing.T) {
	fl := New(100, 0.01)
	count := 0
	for i := routing.NodeID(1); i <= 50; i++ {
		if fl.Add(i) {
			count++
		}
	}
	if count != 50 {
		t.Fatalf("%d of 50 fresh inserts changed bits", count)
	}
	est := estimatedFPRate(fl, count)
	if est <= 0 || est > 0.05 {
		t.Fatalf("estimate %.5f implausible at half fill", est)
	}
}

func TestAddReportsChange(t *testing.T) {
	// Only bit-changing inserts count toward the estimate, so re-adding
	// an ID must report no change.
	fl := New(100, 0.01)
	if !fl.Add(42) {
		t.Fatal("first Add of a fresh ID must change bits")
	}
	for i := 0; i < 5; i++ {
		if fl.Add(42) {
			t.Fatal("re-adding an existing ID must not change bits")
		}
	}
}

func TestMinimumSizing(t *testing.T) {
	// New(1, ...) is the smallest legal filter: it must still honor the
	// m ≥ 64 floor and produce a working filter at every clamp bound.
	fl := New(1, 0.01)
	if fl.SizeBits() < 64 {
		t.Fatalf("SizeBits = %d, want ≥ 64", fl.SizeBits())
	}
	if fl.Hashes() < 1 {
		t.Fatalf("Hashes = %d, want ≥ 1", fl.Hashes())
	}
	fl.Add(1)
	if !fl.Has(1) {
		t.Fatal("single-element filter lost its element")
	}
}

func TestFPRateClampBounds(t *testing.T) {
	// fpRate clamps to [1e-6, 0.5]: values at and beyond the bounds size
	// identically to the bound itself.
	if lo, sub := New(1000, 1e-6), New(1000, 1e-9); lo.SizeBits() != sub.SizeBits() || lo.Hashes() != sub.Hashes() {
		t.Fatalf("sub-floor rate sized differently: %d/%d vs %d/%d",
			sub.SizeBits(), sub.Hashes(), lo.SizeBits(), lo.Hashes())
	}
	if hi, sup := New(1000, 0.5), New(1000, 0.99); hi.SizeBits() != sup.SizeBits() || hi.Hashes() != sup.Hashes() {
		t.Fatalf("above-cap rate sized differently: %d/%d vs %d/%d",
			sup.SizeBits(), sup.Hashes(), hi.SizeBits(), hi.Hashes())
	}
	if zero := New(1000, 0); zero.SizeBits() != New(1000, 1e-6).SizeBits() {
		t.Fatal("zero rate must clamp to the floor")
	}
}

func TestMeasuredFPMatchesEstimate(t *testing.T) {
	// Over a large insert set, the measured false-positive rate should
	// track the analytic estimate (1 - e^(-kn/m))^k within small factors.
	const n = 10_000
	fl := New(n, 0.01)
	rng := rand.New(rand.NewSource(7))
	inserted := make(map[routing.NodeID]bool, n)
	changed := 0
	for len(inserted) < n {
		id := routing.NodeID(rng.Uint32()%100_000_000 + 1)
		if !inserted[id] {
			inserted[id] = true
			if fl.Add(id) {
				changed++
			}
		}
	}
	est := estimatedFPRate(fl, changed)
	if est <= 0 || est > 0.05 {
		t.Fatalf("estimate %.5f implausible for target 0.01", est)
	}
	falsePos, probes := 0, 0
	for probes < 50_000 {
		id := routing.NodeID(rng.Uint32()%100_000_000 + 1)
		if inserted[id] {
			continue
		}
		probes++
		if fl.Has(id) {
			falsePos++
		}
	}
	measured := float64(falsePos) / float64(probes)
	if measured > 3*est+0.005 || (measured > 0 && measured < est/3-0.005) {
		t.Fatalf("measured FP rate %.5f far from estimate %.5f", measured, est)
	}
}

func TestBitsFromBitsRoundTrip(t *testing.T) {
	fl := New(500, 0.01)
	for i := routing.NodeID(1); i <= 500; i++ {
		fl.Add(i * 13)
	}
	back, err := FromBits(fl.SizeBits(), fl.Hashes(), fl.Bits())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(fl) {
		t.Fatal("round-tripped filter differs")
	}
	// Membership answers must be identical, including false positives.
	for id := routing.NodeID(1); id <= 20_000; id++ {
		if back.Has(id) != fl.Has(id) {
			t.Fatalf("membership diverged at %d", id)
		}
	}
	// The words are copied, not shared.
	fl.Bits()[0] ^= 1
	if back.Bits()[0] == fl.Bits()[0] {
		t.Fatal("FromBits shared the caller's storage")
	}
}

func TestFromBitsRejectsBadInput(t *testing.T) {
	words := make([]uint64, 2)
	for _, tc := range []struct {
		name  string
		m     uint64
		k     uint32
		words []uint64
	}{
		{"zero m", 0, 1, nil},
		{"zero k", 64, 0, make([]uint64, 1)},
		{"short words", 128, 1, make([]uint64, 1)},
		{"long words", 64, 1, words},
		{"padding bits set", 100, 1, []uint64{0, 1 << 40}},
	} {
		if _, err := FromBits(tc.m, tc.k, tc.words); err == nil {
			t.Fatalf("%s: FromBits accepted invalid input", tc.name)
		}
	}
	// The same shape with clean padding is accepted.
	if _, err := FromBits(100, 1, []uint64{0, 1 << 35}); err != nil {
		t.Fatalf("valid padding rejected: %v", err)
	}
}
