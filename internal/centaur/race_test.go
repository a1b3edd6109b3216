//go:build race

package centaur

// TestColdStartAllocBudget's limits under the race detector, whose
// instrumentation moves some values from the stack to the heap: measured
// 310,962 allocations and 23.71 MB (330,414 and 25.28 MB while every
// re-announcement re-derived everything below its head and every round
// ranked every neighbor's offer; 331,872 and 26.14 MB while a View's
// round snapshots copied each link's Permission List pairs into a fresh
// slice; 331,874 and 26.49 MB while the simulator's events were 80 bytes
// and its sifts swapped; 409,398 and 32.05 MB while every P-graph
// interned its nodes in a map and every neighbor's derive cache was as
// long as the index; 424,641 and 39.80 MB while the per-destination
// tables grew on demand to the highest ID seen; 554,900 allocations
// while the node still maintained a local view).
const (
	coldStartAllocBudget = 315_000
	coldStartByteBudget  = 24_200_000
)

// TestFlipAllocBudget's limits under the race detector: measured 4,796
// allocations and 170.1 KB per episode (5,596 and 265.1 KB while a
// restarted session rebuilt its export view and its neighbour P-graph
// from nothing).
const (
	flipAllocBudget = 4_900
	flipByteBudget  = 180_000
)
