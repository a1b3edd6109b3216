package pgraph

import (
	"sync"

	"centaur/internal/routing"
)

// DeriveAllParallel is DeriveAllInto fanned out across a bounded worker
// pool: the destinations are split into contiguous chunks and each
// worker backtraces its chunk. Per-
// destination derivations are independent reads of the graph, so the
// result is identical to DeriveAllInto at any worker count or
// GOMAXPROCS — each destination's path depends only on the graph, and
// the merge into out is the same map either way. Telemetry totals are
// also preserved (the counters are atomic; only increment order, which
// counters cannot observe, differs).
//
// Falls back to the serial DeriveAllInto when workers <= 1, when the
// destination set is trivial, or when a false-positive observer is
// installed — observers emit ordered trace events from inside the
// backtrace, and those events' order is part of the byte-identical
// trace contract.
func (g *Graph) DeriveAllParallel(workers int, out map[routing.NodeID]routing.Path) map[routing.NodeID]routing.Path {
	workers = min(workers, g.nDests)
	if workers <= 1 || g.fpObserver != nil {
		return g.DeriveAllInto(out)
	}
	if out == nil {
		out = make(map[routing.NodeID]routing.Path, g.nDests)
	} else {
		clear(out)
	}
	slots := make([]int32, 0, g.nDests)
	for s := int32(0); s < g.nodes.n; s++ {
		if g.nodes.at(s).dest {
			slots = append(slots, s)
		}
	}
	results := make([]routing.Path, len(slots)) // nil = no derivable path
	var wg sync.WaitGroup
	chunk := (len(slots) + workers - 1) / workers
	for lo := 0; lo < len(slots); lo += chunk {
		hi := min(lo+chunk, len(slots))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				results[i], _, _ = g.deriveSlot(slots[i], nil)
			}
		}(lo, hi)
	}
	wg.Wait()
	for i, s := range slots {
		if results[i] != nil {
			out[g.nodes.at(s).id] = results[i]
		}
	}
	return out
}
