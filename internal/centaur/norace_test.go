//go:build !race

package centaur

// coldStartAllocBudget is TestColdStartAllocBudget's limit; measured
// 336,479 (415,158 while the node still maintained a local view).
const coldStartAllocBudget = 350_000
