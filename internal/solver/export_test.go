package solver

import "centaur/internal/routing"

// Per-pair accessors only tests read; programs ask a Solution for
// classes and paths (Class, Path, AppendPath, PathSet).

// NextHop returns from's next hop toward dest, or routing.None when
// unreachable. A node's next hop to itself is itself.
func (s *Solution) NextHop(from, dest routing.NodeID) routing.NodeID {
	f, d := s.idx.Pos(from), s.idx.Pos(dest)
	if f < 0 || d < 0 {
		return routing.None
	}
	nh := s.nextPos(d, int32(f))
	if nh == noRoute {
		return routing.None
	}
	return s.idx.ID(int(nh))
}

// Dist returns the hop count of from's best route to dest; 0 means
// from == dest or unreachable (check Class to distinguish).
func (s *Solution) Dist(from, dest routing.NodeID) int {
	f, d := s.idx.Pos(from), s.idx.Pos(dest)
	if f < 0 || d < 0 {
		return 0
	}
	return int(s.distPos(d, int32(f)))
}

// Reachable reports whether from has any policy-compliant route to dest.
func (s *Solution) Reachable(from, dest routing.NodeID) bool {
	if from == dest {
		return true
	}
	return s.NextHop(from, dest) != routing.None
}
