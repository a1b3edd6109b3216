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

// TestFlipAllocBudget's limits. Measured 4,778 allocations and 165.7 KB
// per episode (5,315 and 254.4 KB while a restarted session rebuilt its
// export view and its neighbour P-graph from nothing).
const (
	flipAllocBudget = 4_900
	flipByteBudget  = 175_000
)
