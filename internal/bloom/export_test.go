package bloom

import "math"

// estimatedFPRate is the analytic false-positive probability of f after
// n inserts that changed bits, (1 - e^(-kn/m))^k: the oracle the
// measured rate is checked against. The filter does not count its
// inserts, so the test passes the count it kept.
func estimatedFPRate(f *Filter, n int) float64 {
	if n == 0 {
		return 0
	}
	exp := -float64(f.k) * float64(n) / float64(f.m)
	return math.Pow(1-math.Exp(exp), float64(f.k))
}
