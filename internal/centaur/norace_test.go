//go:build !race

package centaur

// TestColdStartAllocBudget's limits. Measured 328,414 allocations and
// 24.86 MB (329,872 and 25.70 MB while a View's round snapshots copied
// each link's Permission List pairs into a fresh slice; 26.05 MB while
// the simulator's events were 80 bytes and its sifts swapped; 332,817 and 30.11 MB while every P-graph interned its
// nodes in a map and every neighbor's derive cache was as long as the
// index; 336,479 and 34.28 MB while the per-destination tables grew on
// demand to the highest ID seen; 415,158 allocations while the node
// still maintained a local view).
const (
	coldStartAllocBudget = 333_000
	coldStartByteBudget  = 25_350_000
)

// TestFlipAllocBudget's limits. Measured 4,778 allocations and 165.7 KB
// per episode (5,315 and 254.4 KB while a restarted session rebuilt its
// export view and its neighbour P-graph from nothing).
const (
	flipAllocBudget = 4_900
	flipByteBudget  = 175_000
)
