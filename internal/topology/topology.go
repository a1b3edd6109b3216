// Package topology models AS-level network topologies annotated with
// business relationships, as used throughout the Centaur paper: every
// link between two nodes is a customer/provider, peer/peer, or
// sibling/sibling edge (paper §1, §5.1).
//
// The package also parses and serializes the CAIDA "serial-1" AS
// relationship format so real RouteViews-derived snapshots (the paper's
// CAIDA Sep'07 and HeTop May'05 inputs) can be loaded when available.
package topology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"centaur/internal/routing"
)

// Relationship describes what a neighbor is to the local node.
type Relationship uint8

// Relationship values, from the local node's point of view.
const (
	// RelCustomer means the neighbor is a customer of the local node.
	RelCustomer Relationship = iota + 1
	// RelPeer means the neighbor is a settlement-free peer.
	RelPeer
	// RelProvider means the neighbor is a provider of the local node.
	RelProvider
	// RelSibling means the neighbor belongs to the same organization;
	// siblings exchange all routes (paper Table 3 counts them separately).
	RelSibling
)

// Invert returns the relationship from the other endpoint's perspective:
// a customer's counterpart is a provider and vice versa; peer and sibling
// are symmetric.
func (r Relationship) Invert() Relationship {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return r
	}
}

// IsValid reports whether r is one of the defined relationship values.
func (r Relationship) IsValid() bool {
	return r >= RelCustomer && r <= RelSibling
}

// String returns the lowercase relationship name.
func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	case RelSibling:
		return "sibling"
	default:
		return fmt.Sprintf("relationship(%d)", uint8(r))
	}
}

// Neighbor is one adjacency of a node: the neighbor's ID and what the
// neighbor is to the local node.
type Neighbor struct {
	ID  routing.NodeID
	Rel Relationship
}

// Graph is an AS-level topology with relationship-annotated edges. Edges
// are undirected at the business level (one agreement per node pair) but
// each endpoint sees its own Relationship view. Neighbor lists are kept
// sorted by node ID so all iteration is deterministic.
//
// Graph is not safe for concurrent mutation; concurrent reads are fine.
type Graph struct {
	adj map[routing.NodeID][]Neighbor
	// edges counts undirected edges by the canonical (low, high) pair.
	edges int
}

// NewGraph returns an empty topology with capacity hints for n nodes.
func NewGraph(n int) *Graph {
	return &Graph{adj: make(map[routing.NodeID][]Neighbor, n)}
}

// AddNode ensures node id exists (possibly with no edges). Adding an
// existing node is a no-op. It returns an error for the None sentinel.
func (g *Graph) AddNode(id routing.NodeID) error {
	if !id.IsValid() {
		return fmt.Errorf("topology: invalid node id %v", id)
	}
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = nil
	}
	return nil
}

// HasNode reports whether node id exists in the graph.
func (g *Graph) HasNode(id routing.NodeID) bool {
	_, ok := g.adj[id]
	return ok
}

// AddEdge inserts the undirected business edge a—b where rel describes b
// from a's perspective (e.g. RelCustomer means "b is a's customer"). Both
// endpoints are created if absent. Inserting an edge that already exists
// (regardless of relationship) is an error, as is a self-loop.
func (g *Graph) AddEdge(a, b routing.NodeID, rel Relationship) error {
	if !a.IsValid() || !b.IsValid() {
		return fmt.Errorf("topology: invalid edge endpoints %v-%v", a, b)
	}
	if a == b {
		return fmt.Errorf("topology: self-loop on %v", a)
	}
	if !rel.IsValid() {
		return fmt.Errorf("topology: invalid relationship %v", rel)
	}
	if _, ok := g.Rel(a, b); ok {
		return fmt.Errorf("topology: duplicate edge %v-%v", a, b)
	}
	g.insertNeighbor(a, Neighbor{ID: b, Rel: rel})
	g.insertNeighbor(b, Neighbor{ID: a, Rel: rel.Invert()})
	g.edges++
	return nil
}

// insertNeighbor places nb into a's sorted neighbor list.
func (g *Graph) insertNeighbor(a routing.NodeID, nb Neighbor) {
	list := g.adj[a]
	i := sort.Search(len(list), func(i int) bool { return list[i].ID >= nb.ID })
	list = append(list, Neighbor{})
	copy(list[i+1:], list[i:])
	list[i] = nb
	g.adj[a] = list
}

// RemoveEdge deletes the undirected edge a—b; it reports whether the edge
// existed.
func (g *Graph) RemoveEdge(a, b routing.NodeID) bool {
	if !g.removeNeighbor(a, b) {
		return false
	}
	g.removeNeighbor(b, a)
	g.edges--
	return true
}

func (g *Graph) removeNeighbor(a, b routing.NodeID) bool {
	list := g.adj[a]
	i := sort.Search(len(list), func(i int) bool { return list[i].ID >= b })
	if i >= len(list) || list[i].ID != b {
		return false
	}
	g.adj[a] = append(list[:i], list[i+1:]...)
	return true
}

// Rel returns the relationship of b from a's perspective and whether the
// edge a—b exists.
func (g *Graph) Rel(a, b routing.NodeID) (Relationship, bool) {
	list := g.adj[a]
	i := sort.Search(len(list), func(i int) bool { return list[i].ID >= b })
	if i < len(list) && list[i].ID == b {
		return list[i].Rel, true
	}
	return 0, false
}

// HasEdge reports whether the undirected edge a—b exists.
func (g *Graph) HasEdge(a, b routing.NodeID) bool {
	_, ok := g.Rel(a, b)
	return ok
}

// Neighbors returns a's adjacency list sorted by neighbor ID. The
// returned slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(a routing.NodeID) []Neighbor {
	return g.adj[a]
}

// Degree returns the number of edges incident to node a.
func (g *Graph) Degree(a routing.NodeID) int { return len(g.adj[a]) }

// Nodes returns all node IDs in ascending order. It builds and sorts a
// fresh slice on every call, so hoist it out of loops and use NumNodes
// when only the count is needed; every non-test caller takes it once
// per operation.
func (g *Graph) Nodes() []routing.NodeID {
	out := make([]routing.NodeID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Edges returns every undirected edge once, as (low, high, rel-of-high-
// from-low's-view), sorted for determinism. The slice is built fresh on
// every call: callers may reorder or truncate it freely (the experiment
// harness shuffles flip schedules out of it) without perturbing the
// graph or other callers.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for a, list := range g.adj {
		for _, nb := range list {
			if a < nb.ID {
				out = append(out, Edge{A: a, B: nb.ID, Rel: nb.Rel})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Edge is one undirected business edge; Rel describes B from A's
// perspective.
type Edge struct {
	A, B routing.NodeID
	Rel  Relationship
}

// String renders the edge with its relationship, e.g. "N1-N2 (customer)".
func (e Edge) String() string {
	return fmt.Sprintf("%v-%v (%v)", e.A, e.B, e.Rel)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := NewGraph(len(g.adj))
	out.edges = g.edges
	for id, list := range g.adj {
		cp := make([]Neighbor, len(list))
		copy(cp, list)
		out.adj[id] = cp
	}
	return out
}

// Stats summarizes a topology the way the paper's Table 3 does.
type Stats struct {
	Nodes    int
	Links    int
	Peering  int // peer-peer links
	Provider int // customer-provider links
	Sibling  int // sibling-sibling links
}

// String renders the stats as a Table 3 row.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d links=%d peering=%d provider=%d sibling=%d",
		s.Nodes, s.Links, s.Peering, s.Provider, s.Sibling)
}

// Stats computes the Table 3 characteristics of the graph.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.adj), Links: g.edges}
	for a, list := range g.adj {
		for _, nb := range list {
			if a >= nb.ID {
				continue // count each undirected edge once
			}
			switch nb.Rel {
			case RelPeer:
				s.Peering++
			case RelSibling:
				s.Sibling++
			case RelCustomer, RelProvider:
				s.Provider++
			}
		}
	}
	return s
}

// Connected reports whether the graph is connected, ignoring link
// directions and relationships. An empty graph is considered connected.
func (g *Graph) Connected() bool {
	if len(g.adj) == 0 {
		return true
	}
	var start routing.NodeID
	for id := range g.adj {
		start = id
		break
	}
	seen := make(map[routing.NodeID]struct{}, len(g.adj))
	stack := []routing.NodeID{start}
	seen[start] = struct{}{}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.adj[n] {
			if _, ok := seen[nb.ID]; !ok {
				seen[nb.ID] = struct{}{}
				stack = append(stack, nb.ID)
			}
		}
	}
	return len(seen) == len(g.adj)
}

// ParseRelationships reads a CAIDA serial-1 AS-relationship file:
// one "provider|customer|-1", "peer|peer|0", or "sibling|sibling|2"
// record per line; '#' starts a comment. This is the format of the
// paper's CAIDA input (Table 3).
func ParseRelationships(r io.Reader) (*Graph, error) {
	g := NewGraph(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if len(fields) < 3 {
			return nil, fmt.Errorf("topology: line %d: want 3 '|'-separated fields, got %q", lineNo, line)
		}
		a64, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: bad AS %q: %w", lineNo, fields[0], err)
		}
		b64, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("topology: line %d: bad AS %q: %w", lineNo, fields[1], err)
		}
		a, b := routing.NodeID(a64), routing.NodeID(b64)
		var rel Relationship
		switch strings.TrimSpace(fields[2]) {
		case "-1":
			rel = RelCustomer // second AS is the customer of the first
		case "0":
			rel = RelPeer
		case "2":
			rel = RelSibling
		default:
			return nil, fmt.Errorf("topology: line %d: unknown relationship code %q", lineNo, fields[2])
		}
		if g.HasEdge(a, b) {
			continue // measured snapshots occasionally repeat records
		}
		if err := g.AddEdge(a, b, rel); err != nil {
			return nil, fmt.Errorf("topology: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: reading relationships: %w", err)
	}
	return g, nil
}

// WriteRelationships serializes the graph in CAIDA serial-1 format,
// sorted by (A, B) for reproducible output.
func WriteRelationships(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, e := range g.Edges() {
		var line string
		switch e.Rel {
		case RelCustomer:
			line = fmt.Sprintf("%d|%d|-1\n", uint32(e.A), uint32(e.B))
		case RelProvider:
			line = fmt.Sprintf("%d|%d|-1\n", uint32(e.B), uint32(e.A))
		case RelPeer:
			line = fmt.Sprintf("%d|%d|0\n", uint32(e.A), uint32(e.B))
		case RelSibling:
			line = fmt.Sprintf("%d|%d|2\n", uint32(e.A), uint32(e.B))
		}
		if _, err := bw.WriteString(line); err != nil {
			return fmt.Errorf("topology: writing relationships: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("topology: flushing relationships: %w", err)
	}
	return nil
}
