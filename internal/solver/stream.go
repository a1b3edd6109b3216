// Streaming-shard solving. SolveShards runs the same per-destination
// fixpoints as SolveOpts but materializes only one destination shard at
// a time, handing each window to a callback before reusing the memory —
// O(N·shard) residency instead of O(N²). Its one caller is StreamEqual,
// the scaling sweep's cold-side verification.
package solver

import (
	"errors"
	"fmt"

	"centaur/internal/topology"
)

// ShardView is a window over the converged routes toward the
// destinations [Lo, Hi) (dense positions). It is valid only during the
// SolveShards callback that delivered it; the backing memory is reused
// for the next shard.
type ShardView struct {
	idx *topology.Index
	adj *adjacency
	pk  *packedTable
	lo  int
	hi  int
}

// Lo returns the first destination position covered by the view.
func (w *ShardView) Lo() int { return w.lo }

// Hi returns one past the last destination position covered.
func (w *ShardView) Hi() int { return w.hi }

// SolveShards solves g destination-shard by destination-shard, invoking
// fn with a view of each converged window in ascending destination
// order. Only one window (O(N · destsPerShard) packed bits) is resident at
// a time. fn returning a non-nil error stops the sweep and returns that
// error. The per-window fixpoints still fan out across all CPU cores.
func SolveShards(g *topology.Graph, opts Options, fn func(*ShardView) error) error {
	idx := topology.NewIndex(g)
	n := idx.Len()
	if n == 0 {
		return fmt.Errorf("solver: empty topology")
	}
	adj := buildAdjacency(g, idx, opts)
	shard := opts.shardDests()
	view := &ShardView{idx: idx, adj: adj}
	window := &Solution{topo: g, idx: idx, opts: opts, adj: adj}
	for lo := 0; lo < n; lo += shard {
		hi := min(lo+shard, n)
		if view.pk == nil || view.pk.nd != hi-lo {
			view.pk = newPackedTable(adj, lo, hi-lo, hi-lo)
		} else {
			view.pk.dbase = lo
			clear(view.pk.overflow)
		}
		view.lo, view.hi = lo, hi
		window.pk = view.pk
		if err := solveRange(window, lo, hi); err != nil {
			return err
		}
		reportTableBytes(view.pk.bytes())
		if err := fn(view); err != nil {
			return err
		}
	}
	return nil
}

// errStreamMismatch is StreamEqual's early-stop sentinel.
var errStreamMismatch = errors.New("solver: stream mismatch")

// StreamEqual reports whether sol's answers match a cold shard-streamed
// solve of g under opts — the memory-bounded form of the
// cold-vs-incremental verification: the cold side never materializes a
// full table, so it works at sizes where a second Θ(N²) Solution (even
// a sharded one) would not fit. Layouts and slot numberings are
// irrelevant; answers are compared. Stops at the first mismatching
// shard.
func StreamEqual(g *topology.Graph, opts Options, sol *Solution) (bool, error) {
	if sol.idx.Len() != topology.NewIndex(g).Len() {
		return false, nil
	}
	n := sol.idx.Len()
	err := SolveShards(g, opts, func(w *ShardView) error {
		for d := w.Lo(); d < w.Hi(); d++ {
			if sol.idx.ID(d) != w.idx.ID(d) {
				return errStreamMismatch
			}
			for v := int32(0); v < int32(n); v++ {
				if sol.nextPos(d, v) != w.pk.nextAt(w.adj, d, v) ||
					sol.classPos(d, v) != w.pk.classAt(w.adj, nil, d, v) ||
					sol.distPos(d, v) != w.pk.distAt(d, v) {
					return errStreamMismatch
				}
			}
		}
		return nil
	})
	if err == errStreamMismatch {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}
