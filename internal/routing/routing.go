// Package routing defines the primitive value types shared by every
// routing subsystem in the Centaur reproduction: node identifiers,
// directed links, paths, and destination prefixes.
//
// The package is intentionally dependency-free; topology, policy, the
// P-graph machinery, the protocols, and the simulator all build on it.
package routing

import (
	"fmt"
	"strings"
)

// NodeID identifies a node (an Autonomous System in the paper's model) in
// a topology. The zero value None is reserved as "no node" so that maps
// and structs are useful at their zero value.
type NodeID uint32

// None is the reserved "no node" sentinel. Valid node IDs start at 1.
const None NodeID = 0

// IsValid reports whether n is a usable node identifier (not None).
func (n NodeID) IsValid() bool { return n != None }

// String renders the node ID in the compact form used in traces, e.g. "N17".
func (n NodeID) String() string {
	if n == None {
		return "N-"
	}
	return fmt.Sprintf("N%d", uint32(n))
}

// Link is a directed link From -> To. In Centaur all announced links are
// directed "downstream links": From is upstream (closer to the P-graph
// root), To is downstream (closer to the destination). See paper §3.2.1.
type Link struct {
	From NodeID
	To   NodeID
}

// Reverse returns the link with endpoints swapped (To -> From).
func (l Link) Reverse() Link { return Link{From: l.To, To: l.From} }

// IsValid reports whether both endpoints are valid and distinct.
func (l Link) IsValid() bool {
	return l.From.IsValid() && l.To.IsValid() && l.From != l.To
}

// String renders the link in the paper's arrow notation, e.g. "N1->N2".
func (l Link) String() string {
	return l.From.String() + "->" + l.To.String()
}

// Path is a loop-free node sequence from source to destination, in the
// paper's ⟨A, C, D⟩ order: Path[0] is the source, Path[len-1] the
// destination. A nil or empty Path means "no path".
type Path []NodeID

// Source returns the first node of the path, or None for an empty path.
func (p Path) Source() NodeID {
	if len(p) == 0 {
		return None
	}
	return p[0]
}

// Dest returns the last node of the path, or None for an empty path.
func (p Path) Dest() NodeID {
	if len(p) == 0 {
		return None
	}
	return p[len(p)-1]
}

// Len returns the number of links in the path (nodes minus one); an empty
// or single-node path has length 0.
func (p Path) Len() int {
	if len(p) <= 1 {
		return 0
	}
	return len(p) - 1
}

// Contains reports whether node n appears anywhere on the path.
func (p Path) Contains(n NodeID) bool {
	for _, x := range p {
		if x == n {
			return true
		}
	}
	return false
}

// NextHop returns the node that immediately follows n on the path, or
// None if n is absent or is the destination.
func (p Path) NextHop(n NodeID) NodeID {
	for i, x := range p {
		if x == n {
			if i+1 < len(p) {
				return p[i+1]
			}
			return None
		}
	}
	return None
}

// Links decomposes the path into its directed downstream links, in order
// from source to destination.
func (p Path) Links() []Link {
	if len(p) < 2 {
		return nil
	}
	links := make([]Link, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		links = append(links, Link{From: p[i], To: p[i+1]})
	}
	return links
}

// HasLoop reports whether any node appears more than once on the path.
func (p Path) HasLoop() bool {
	// Inter-domain paths are short; the quadratic scan avoids a map
	// allocation on the hot BuildGraph validation path.
	if len(p) <= 16 {
		for i := 1; i < len(p); i++ {
			for j := 0; j < i; j++ {
				if p[i] == p[j] {
					return true
				}
			}
		}
		return false
	}
	seen := make(map[NodeID]struct{}, len(p))
	for _, n := range p {
		if _, dup := seen[n]; dup {
			return true
		}
		seen[n] = struct{}{}
	}
	return false
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Equal reports whether two paths visit exactly the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Prepend returns a new path with node n placed before the current
// source, i.e. the path n would use when forwarding through p's source.
func (p Path) Prepend(n NodeID) Path {
	out := make(Path, 0, len(p)+1)
	out = append(out, n)
	out = append(out, p...)
	return out
}

// String renders the path in the paper's angle-bracket notation,
// e.g. "<N1,N3,N7>".
func (p Path) String() string {
	if len(p) == 0 {
		return "<>"
	}
	var b strings.Builder
	b.WriteByte('<')
	for i, n := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n.String())
	}
	b.WriteByte('>')
	return b.String()
}
