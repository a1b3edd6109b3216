//go:build !race

package centaur

// TestColdStartAllocBudget's limits. Measured 333,448 allocations and
// 30.10 MB (336,479 and 34.28 MB while the per-destination tables grew
// on demand to the highest ID seen; 415,158 allocations while the node
// still maintained a local view).
const (
	coldStartAllocBudget = 340_000
	coldStartByteBudget  = 31_000_000
)
