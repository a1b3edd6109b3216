package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.N() != 0 {
		t.Fatal("empty distribution must have n=0")
	}
	// Empty summaries answer NaN — an explicit "no data" marker — rather
	// than a silent 0 that reads like a real sample.
	for name, v := range map[string]float64{
		"mean": d.Mean(), "median": d.Median(), "min": d.Min(),
		"max": d.Max(), "p90": d.Percentile(90),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("empty %s = %g, want NaN", name, v)
		}
	}
	if d.CDF(5) != nil {
		t.Fatal("empty CDF must be nil")
	}
}

func TestDistBasics(t *testing.T) {
	d := NewDist(5)
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.N() != 5 || d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("basics wrong: n=%d min=%g max=%g", d.N(), d.Min(), d.Max())
	}
	if d.Mean() != 3 || d.Median() != 3 {
		t.Fatalf("mean=%g median=%g", d.Mean(), d.Median())
	}
	if got := d.Percentile(0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := d.Percentile(100); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := d.Percentile(50); got != 3 {
		t.Fatalf("p50 = %g", got)
	}
}

func TestDistAddAfterQuery(t *testing.T) {
	d := NewDist(2)
	d.Add(10)
	if d.Max() != 10 {
		t.Fatal("max wrong")
	}
	d.Add(20) // must invalidate the sorted cache
	if d.Max() != 20 {
		t.Fatal("Add after query must re-sort")
	}
}

func TestCDFMonotonic(t *testing.T) {
	d := NewDist(100)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		d.Add(rng.Float64() * 50)
	}
	pts := d.CDF(10)
	if len(pts) != 10 {
		t.Fatalf("CDF returned %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F <= pts[i-1].F {
			t.Fatalf("CDF not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Fatalf("CDF must end at 1, got %g", pts[len(pts)-1].F)
	}
	// More points than samples clamps to sample count.
	small := NewDist(2)
	small.Add(1)
	small.Add(2)
	if got := small.CDF(10); len(got) != 2 {
		t.Fatalf("clamped CDF has %d points", len(got))
	}
}

// TestPercentileProperty: percentiles are bounded by min/max and
// monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		d := NewDist(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			d.Add(v)
		}
		p := float64(pRaw) / 2.55
		v := d.Percentile(p)
		if v < d.Min() || v > d.Max() {
			return false
		}
		return d.Percentile(p/2) <= v || p == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryRenders(t *testing.T) {
	d := NewDist(3)
	d.Add(1)
	if s := d.Summary(); s == "" {
		t.Fatal("summary must render")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{2, 2, 2, 3, 5} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("counts wrong: %v", h)
	}
	if got := h.Fraction(2); got != 0.6 {
		t.Fatalf("Fraction(2) = %g", got)
	}
	if got := h.CountAbove(2); got != 2 {
		t.Fatalf("CountAbove(2) = %d", got)
	}
	if got := h.FractionAbove(3); got != 0.2 {
		t.Fatalf("FractionAbove(3) = %g", got)
	}
	if h.String() != "{2:3 3:1 5:1}" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Fraction(1) != 0 || h.FractionAbove(1) != 0 {
		t.Fatal("empty histogram fractions must be 0")
	}
}

func TestDistSortedIndependence(t *testing.T) {
	// Percentile sorting must not corrupt insertion order semantics.
	d := NewDist(6)
	vals := []float64{9, 1, 7, 3, 8, 2}
	for _, v := range vals {
		d.Add(v)
	}
	_ = d.Median()
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	if d.Min() != sorted[0] || d.Max() != sorted[len(sorted)-1] {
		t.Fatal("sorting broke min/max")
	}
}
