//go:build race

package centaur

// TestColdStartAllocBudget's limits under the race detector, whose
// instrumentation moves some values from the stack to the heap: measured
// 410,028 allocations and 32.05 MB (424,641 and 39.80 MB while the
// per-destination tables grew on demand to the highest ID seen; 554,900
// allocations while the node still maintained a local view).
const (
	coldStartAllocBudget = 420_000
	coldStartByteBudget  = 33_000_000
)

// TestFlipAllocBudget's limits under the race detector: measured 4,796
// allocations and 170.1 KB per episode (5,596 and 265.1 KB while a
// restarted session rebuilt its export view and its neighbour P-graph
// from nothing).
const (
	flipAllocBudget = 4_900
	flipByteBudget  = 180_000
)
