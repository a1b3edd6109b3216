//go:build !race

package centaur

// TestColdStartAllocBudget's limits. Measured 251,408 allocations and
// 18.91 MB (308,966 and 23.28 MB while every neighbor had an export view
// of its own; 328,414 and 24.86 MB while every re-announcement re-derived
// everything below its head and every round ranked every neighbor's
// offer; 329,872 and 25.70 MB while a View's round snapshots copied
// each link's Permission List pairs into a fresh slice; 26.05 MB while
// the simulator's events were 80 bytes and its sifts swapped; 332,817 and 30.11 MB while every P-graph interned its
// nodes in a map and every neighbor's derive cache was as long as the
// index; 336,479 and 34.28 MB while the per-destination tables grew on
// demand to the highest ID seen; 415,158 allocations while the node
// still maintained a local view).
const (
	coldStartAllocBudget = 255_000
	coldStartByteBudget  = 19_300_000
)

// TestFlipAllocBudget's limits. Measured 4,209 allocations and 161.6 KB
// per episode (4,578 and 162.5 KB while every neighbor had an export view
// of its own and LinkDown listed the ended graph's destinations into a
// fresh slice; 5,315 and 254.4 KB while a restarted session rebuilt its
// export view and its neighbour P-graph from nothing).
const (
	flipAllocBudget = 4_350
	flipByteBudget  = 166_000
)
