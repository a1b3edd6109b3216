// Parallel recompute rounds (Config.DeriveWorkers). A round is split in
// two phases so the fan-out never races on node state:
//
//  1. Ranking (parallel): each worker ranks the candidate paths for a
//     contiguous chunk of the sorted destination list. This phase only
//     READS — the neighbor P-graphs (derivation is one of pgraph's
//     read-only operations), the neighbor table, the failed-link mask,
//     and the derive cache. Cache misses are derived but the results
//     are recorded per-destination instead of written back.
//  2. Apply (serial, ascending destinations): the deferred cache
//     entries are installed and each destination's winner goes through
//     the same applyBest as the serial path, so route tables, trace
//     events, and dirty-view marks happen in exactly the order the
//     serial solver produces.
//
// Every (neighbor, destination) pair is derived at most once per round
// in either mode — destinations are unique within a round and a serial
// round's mid-round cache installs can therefore never serve a hit the
// parallel round would miss — so the derivation/cache-hit telemetry
// totals are identical too, not just the routes.
package centaur

import (
	"sync"

	"centaur/internal/policy"
	"centaur/internal/routing"
)

// cacheInstall is one derive-cache write deferred out of the parallel
// ranking phase.
type cacheInstall struct {
	nb *neighbor
	p  int // destination position
	e  routing.Path
}

// rankResult is one destination's ranking-phase output.
type rankResult struct {
	best     policy.Candidate // rank's winner, not yet self-prepended
	installs []cacheInstall
}

// solveSomeParallel is solveSome with the ranking phase fanned out
// across workers goroutines. Callers guarantee workers > 1 and
// !cfg.BloomPL (Bloom false-positive observation happens inside the
// backtrace and its trace order must stay serial).
func (n *Node) solveSomeParallel(dests []int, skip func(routing.Link) bool, workers int) []int {
	workers = min(workers, len(dests))
	results := make([]rankResult, len(dests))
	var wg sync.WaitGroup
	chunk := (len(dests) + workers - 1) / workers
	for lo := 0; lo < len(dests); lo += chunk {
		hi := min(lo+chunk, len(dests))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if n.idx.ID(dests[i]) != n.self {
					results[i].best = n.rank(dests[i], skip, &results[i].installs)
				}
			}
		}(lo, hi)
	}
	wg.Wait()

	changed := n.changedBuf[:0]
	for i, p := range dests {
		if n.idx.ID(p) == n.self {
			continue
		}
		for _, ins := range results[i].installs {
			ins.nb.derived[ins.p] = ins.e
		}
		if n.applyBest(p, results[i].best) {
			changed = append(changed, p)
		}
	}
	n.changedBuf = changed
	return changed
}
