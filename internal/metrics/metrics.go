// Package metrics provides the small statistical toolkit the experiment
// harness uses to summarize results: sample distributions, percentiles,
// CDF extraction, and histogram bucketing.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist accumulates float64 samples and answers summary queries. The
// zero value is an empty distribution ready for use.
type Dist struct {
	samples []float64
	sorted  bool
}

// NewDist returns a distribution with capacity for n samples.
func NewDist(n int) *Dist {
	return &Dist{samples: make([]float64, 0, n)}
}

// Add appends one sample.
func (d *Dist) Add(v float64) {
	d.samples = append(d.samples, v)
	d.sorted = false
}

// N returns the number of samples.
func (d *Dist) N() int { return len(d.samples) }

// Mean returns the arithmetic mean, or NaN for an empty distribution —
// an explicit "no data" marker rather than a silent 0 that reads like a
// real sample (use N to distinguish beforehand).
func (d *Dist) Mean() float64 {
	if len(d.samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range d.samples {
		sum += v
	}
	return sum / float64(len(d.samples))
}

// Min returns the smallest sample, or NaN when empty (see Mean).
func (d *Dist) Min() float64 {
	d.ensureSorted()
	if len(d.samples) == 0 {
		return math.NaN()
	}
	return d.samples[0]
}

// Max returns the largest sample, or NaN when empty (see Mean).
func (d *Dist) Max() float64 {
	d.ensureSorted()
	if len(d.samples) == 0 {
		return math.NaN()
	}
	return d.samples[len(d.samples)-1]
}

// Samples returns the samples in ascending order. The slice is owned by
// the distribution and must not be modified.
func (d *Dist) Samples() []float64 {
	d.ensureSorted()
	return d.samples
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Percentile returns the p-th percentile (0–100), interpolating
// linearly between the two closest ranks, or NaN when empty (see Mean).
func (d *Dist) Percentile(p float64) float64 {
	d.ensureSorted()
	n := len(d.samples)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return d.samples[0]
	}
	if p >= 100 {
		return d.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return d.samples[lo]
	}
	frac := rank - float64(lo)
	return d.samples[lo]*(1-frac) + d.samples[hi]*frac
}

// CDF returns up to points (x, F(x)) pairs tracing the empirical CDF,
// evenly spaced in rank — the series the paper's CDF figures plot.
func (d *Dist) CDF(points int) []CDFPoint {
	d.ensureSorted()
	n := len(d.samples)
	if n == 0 || points <= 0 {
		return nil
	}
	if points > n {
		points = n
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * n / points
		if idx > n {
			idx = n
		}
		out = append(out, CDFPoint{X: d.samples[idx-1], F: float64(idx) / float64(n)})
	}
	return out
}

// CDFPoint is one point of an empirical CDF: F of the samples are ≤ X.
type CDFPoint struct {
	X float64
	F float64
}

// Summary formats the usual five-number overview.
func (d *Dist) Summary() string {
	return fmt.Sprintf("n=%d min=%.3g p25=%.3g median=%.3g mean=%.3g p75=%.3g p95=%.3g max=%.3g",
		d.N(), d.Min(), d.Percentile(25), d.Median(), d.Mean(),
		d.Percentile(75), d.Percentile(95), d.Max())
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.samples)
		d.sorted = true
	}
}

// Histogram counts integer-valued observations into named buckets. It
// backs distribution tables like the paper's Table 5.
type Histogram struct {
	counts map[int]int64
	total  int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int64)}
}

// Add counts one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() int64 { return h.total }

// CountAbove returns the number of observations strictly greater than v.
func (h *Histogram) CountAbove(v int) int64 {
	var n int64
	for k, c := range h.counts {
		if k > v {
			n += c
		}
	}
	return n
}

// Fraction returns the share of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[v]) / float64(h.total)
}

// FractionAbove returns the share of observations strictly greater than v.
func (h *Histogram) FractionAbove(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.CountAbove(v)) / float64(h.total)
}

// String lists the value counts in ascending value order.
func (h *Histogram) String() string {
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d:%d", k, h.counts[k]))
	}
	return "{" + strings.Join(parts, " ") + "}"
}
