//go:build race

package centaur

// coldStartAllocBudget under the race detector, whose instrumentation
// moves some values from the stack to the heap: measured 424,632
// (554,900 while the node still maintained a local view).
const coldStartAllocBudget = 440_000
