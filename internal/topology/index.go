package topology

import (
	"slices"

	"centaur/internal/routing"
)

// Index assigns dense array positions to the graph's node IDs so that
// hot algorithms (the static solver, the generators, the simulator and
// every protocol's per-destination tables) can use slices instead of
// maps. Positions follow ascending ID order, so a walk over positions is
// a walk over IDs in order. Build one with NewIndex; it is immutable
// afterwards and safe for concurrent reads.
type Index struct {
	ids []routing.NodeID // ascending
}

// NewIndex returns the dense index of g's nodes in ascending ID order.
func NewIndex(g *Graph) *Index {
	return &Index{ids: g.Nodes()}
}

// IndexOf returns the dense index of the given node IDs in ascending ID
// order, each indexed once; routing.None is not indexed. ids is not
// retained. It serves callers that hold node sets rather than a Graph,
// such as a P-graph built from a bare path set.
func IndexOf(ids []routing.NodeID) *Index {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	if len(sorted) > 0 && sorted[0] == routing.None {
		sorted = sorted[1:]
	}
	return &Index{ids: sorted}
}

// Len returns the number of indexed nodes.
func (ix *Index) Len() int { return len(ix.ids) }

// ID returns the node ID at dense position i.
func (ix *Index) ID(i int) routing.NodeID { return ix.ids[i] }

// Pos returns the dense position of id, or -1 if id is not indexed. IDs
// numbered densely from 1 resolve in one comparison (id sits at id-1);
// any other ID by binary search over the ascending IDs.
func (ix *Index) Pos(id routing.NodeID) int {
	// None wraps past every length.
	if i := uint(id) - 1; i < uint(len(ix.ids)) && ix.ids[i] == id {
		return int(i)
	}
	if i, ok := slices.BinarySearch(ix.ids, id); ok {
		return i
	}
	return -1
}

// IDs returns all indexed node IDs in position order. The slice is owned
// by the index and must not be modified.
func (ix *Index) IDs() []routing.NodeID { return ix.ids }
