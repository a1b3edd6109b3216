// Package invariant checks a quiesced network's routing state against
// the properties the paper's protocols must re-establish after any
// fault sequence: every RIB equals the solver's ground truth, every
// selected path is loop-free, and every selected path is valley-free
// under the Gao–Rexford export rules. It is the oracle the reliability
// experiments consult after fault-injected runs — a network can quiesce
// into a *wrong* stable state (e.g. a protocol run without the reliable
// transport under message loss), and only a state check catches that.
//
// The checker is protocol-agnostic: nodes expose their RIBs through
// structural interfaces. Path-vector protocols (bgp, centaur) implement
// PathRIB and are checked path-by-path against the solver solution;
// shortest-path protocols (ospf) implement NextHopRIB and are checked
// by walking next hops — each walk must reach the destination without
// revisiting a node, in exactly the true shortest-path hop count.
// Reliable-transport adapters are peeled with Unwrap first.
package invariant

import (
	"fmt"

	"centaur/internal/forward"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topology"
)

// PathRIB is the per-node view a path-vector protocol exposes: the
// selected path [self, ..., dest], or nil when it has no route.
type PathRIB interface {
	BestPath(dest routing.NodeID) routing.Path
}

// NextHopRIB is the per-node view a shortest-path protocol exposes: the
// selected next hop toward dest, or routing.None when unreachable.
type NextHopRIB interface {
	NextHop(dest routing.NodeID) routing.NodeID
}

// Unwrap is sim.Unwrap; the benchmark module (benchmark/) still calls it
// here.
func Unwrap(p sim.Protocol) sim.Protocol { return sim.Unwrap(p) }

// Violation is one broken invariant at one (node, destination) pair.
type Violation struct {
	Node routing.NodeID
	Dest routing.NodeID
	// Kind is one of "no-rib", "rib-mismatch", "missing-route",
	// "phantom-route", "loop", "valley", "detour".
	Kind   string
	Detail string
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	return fmt.Sprintf("%s at node %v dest %v: %s", v.Kind, v.Node, v.Dest, v.Detail)
}

// Check dispatches on what each node's protocol exposes: PathRIB nodes
// are checked against the solver ground truth, NextHopRIB nodes by
// shortest-path next-hop walks. Nodes exposing neither yield a "no-rib"
// violation. The network must be quiesced with all nodes and links up —
// the state every completed fault plan restores.
func Check(net *sim.Network, sol *solver.Solution) []Violation {
	return checkAgainst(net, sol, net.Topology())
}

// CheckAt is Check for a quiesced network whose live link state differs
// from the topology the simulator was built with — e.g. after FailLink
// reconverged but before the restore. sim.Network.FailLink does not
// mutate the construction-time graph, so the caller supplies the truth
// through sol: a solution maintained against a mutated clone of the
// graph (typically forked with Solution.CloneOn and kept current with
// Solution.Resolve). That solution's topology — not the simulator's —
// drives the reachability, valley, and shortest-path checks.
func CheckAt(net *sim.Network, sol *solver.Solution) []Violation {
	return checkAgainst(net, sol, sol.Topology())
}

// checkAgainst is the dispatch core of Check/CheckAt, parameterized by
// the graph that defines current reachability.
func checkAgainst(net *sim.Network, sol *solver.Solution, g *topology.Graph) []Violation {
	var out []Violation
	nodes := g.Nodes()
	usesNextHop := false
	for _, id := range nodes {
		switch p := sim.Unwrap(net.Node(id)).(type) {
		case PathRIB:
			out = append(out, checkNodePaths(g, sol, id, p, nodes)...)
		case NextHopRIB:
			usesNextHop = true
		default:
			out = append(out, Violation{Node: id, Kind: "no-rib",
				Detail: fmt.Sprintf("protocol %T exposes neither BestPath nor NextHop", p)})
		}
	}
	if usesNextHop {
		out = append(out, checkNextHopsOn(net, g)...)
	}
	return out
}

// checkNodePaths verifies one path-vector node against the solver for
// every destination: RIB equals solver, loop-free, valley-free.
func checkNodePaths(g *topology.Graph, sol *solver.Solution, id routing.NodeID, rib PathRIB, nodes []routing.NodeID) []Violation {
	var out []Violation
	for _, dest := range nodes {
		if dest == id {
			continue
		}
		want, reachable := sol.Path(id, dest)
		got := rib.BestPath(dest)
		switch {
		case !reachable && got != nil:
			out = append(out, Violation{Node: id, Dest: dest, Kind: "phantom-route",
				Detail: fmt.Sprintf("selected %v but no policy-compliant route exists", got)})
		case reachable && got == nil:
			out = append(out, Violation{Node: id, Dest: dest, Kind: "missing-route",
				Detail: fmt.Sprintf("no route selected; solver has %v", want)})
		case reachable && !got.Equal(want):
			out = append(out, Violation{Node: id, Dest: dest, Kind: "rib-mismatch",
				Detail: fmt.Sprintf("selected %v, solver has %v", got, want)})
		}
		if got == nil {
			continue
		}
		if v, ok := loopCheck(id, dest, got); !ok {
			out = append(out, v)
		} else if v, ok := valleyCheck(g, id, dest, got); !ok {
			out = append(out, v)
		}
	}
	return out
}

// CheckFlows verifies the data-plane walker's per-flow outcomes against
// the solver oracle on a quiesced network: every flow whose destination
// the solver reaches must be Delivered, and the walked path must be the
// solver's path (path-vector sources) or take exactly the shortest-path
// hop count (next-hop sources); flows the solver cannot route must not
// be delivered at all. Like CheckAt, sol's topology — not the
// simulator's construction-time graph — defines current reachability,
// so the check is valid mid-fault-plan. Violation kinds: "flow-loop",
// "flow-blackhole", "flow-valley", "flow-phantom" (delivered though the
// solver has no route), "flow-mismatch" (delivered along a path that is
// not the solver's), "flow-detour" (next-hop source delivered in more
// hops than the shortest path).
func CheckFlows(net *sim.Network, sol *solver.Solution, flows []forward.Flow) []Violation {
	g := sol.Topology()
	var out []Violation
	dists := make(map[routing.NodeID]map[routing.NodeID]int) // per-dest BFS cache
	distTo := func(dst routing.NodeID) map[routing.NodeID]int {
		d := dists[dst]
		if d == nil {
			d = bfsDistances(g, dst)
			dists[dst] = d
		}
		return d
	}
	for _, f := range flows {
		path, outcome := forward.WalkFlow(net, f)
		_, isPath := sim.Unwrap(net.Node(f.Src)).(PathRIB)
		// Ground truth depends on the source's RIB shape: path-vector
		// sources answer to the policy solver, next-hop sources to plain
		// graph reachability — the same split Check makes.
		var want routing.Path
		var reachable bool
		if isPath {
			want, reachable = sol.Path(f.Src, f.Dst)
		} else {
			_, reachable = distTo(f.Dst)[f.Src]
		}
		if !reachable {
			if outcome == forward.Delivered || outcome == forward.ValleyDelivered {
				out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-phantom",
					Detail: fmt.Sprintf("flow delivered along %v but no route should exist", path)})
			}
			continue
		}
		switch outcome {
		case forward.Looping:
			out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-loop",
				Detail: fmt.Sprintf("flow loops (walk %v exceeds hop budget)", path)})
		case forward.Blackholed:
			out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-blackhole",
				Detail: fmt.Sprintf("flow blackholed at %v after %d hops", path[len(path)-1], len(path)-1)})
		case forward.ValleyDelivered:
			// Shortest-path protocols do not implement Gao–Rexford; a
			// quiesced valley crossing is a measurement for them (the
			// tracker reports it), not a violation.
			if isPath {
				out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-valley",
					Detail: fmt.Sprintf("flow delivered across a valley along %v", path)})
			} else if shortest := distTo(f.Dst)[f.Src]; len(path)-1 != shortest {
				out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-detour",
					Detail: fmt.Sprintf("flow delivered in %d hops, shortest path is %d", len(path)-1, shortest)})
			}
		case forward.Delivered:
			if isPath {
				// The walk concatenates per-hop RIB reads; at a solver
				// fixpoint that concatenation is exactly the source's (and the
				// solver's) selected path — hop consistency.
				if !path.Equal(want) {
					out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-mismatch",
						Detail: fmt.Sprintf("flow walked %v, solver has %v", path, want)})
				}
			} else if shortest := distTo(f.Dst)[f.Src]; len(path)-1 != shortest {
				out = append(out, Violation{Node: f.Src, Dest: f.Dst, Kind: "flow-detour",
					Detail: fmt.Sprintf("flow delivered in %d hops, shortest path is %d", len(path)-1, shortest)})
			}
		}
	}
	return out
}

// loopCheck verifies p is a well-formed simple path from id to dest.
func loopCheck(id, dest routing.NodeID, p routing.Path) (Violation, bool) {
	if p[0] != id || p[len(p)-1] != dest {
		return Violation{Node: id, Dest: dest, Kind: "loop",
			Detail: fmt.Sprintf("path %v does not run self→dest", p)}, false
	}
	seen := make(map[routing.NodeID]bool, len(p))
	for _, n := range p {
		if seen[n] {
			return Violation{Node: id, Dest: dest, Kind: "loop",
				Detail: fmt.Sprintf("path %v revisits %v", p, n)}, false
		}
		seen[n] = true
	}
	return Violation{}, true
}

// valleyCheck verifies p obeys Gao–Rexford by replaying its export
// chain (policy.ExportViolation). A phase walk with "transparent"
// sibling edges was the previous implementation; it misflagged legal
// sibling-laundered routes — a provider route learned from a sibling is
// ClassSibling and legally climbs to peers and providers again — so the
// check now asks the export rule itself.
func valleyCheck(g *topology.Graph, id, dest routing.NodeID, p routing.Path) (Violation, bool) {
	hop, ok := policy.ExportViolation(g, p)
	if ok {
		return Violation{}, true
	}
	if _, present := g.Rel(p[hop], p[hop+1]); !present {
		return Violation{Node: id, Dest: dest, Kind: "valley",
			Detail: fmt.Sprintf("path %v uses non-existent link %v-%v", p, p[hop], p[hop+1])}, false
	}
	return Violation{Node: id, Dest: dest, Kind: "valley",
		Detail: fmt.Sprintf("path %v: %v's export to %v violates Gao-Rexford", p, p[hop+1], p[hop])}, false
}

// CheckNextHops verifies every NextHopRIB node: each next-hop walk
// toward each destination reaches it without revisiting a node, in
// exactly the shortest-path hop count of the full (all-links-up)
// topology. Nodes not exposing NextHopRIB are skipped — Check handles
// the mixed reporting.
func CheckNextHops(net *sim.Network) []Violation {
	return checkNextHopsOn(net, net.Topology())
}

// checkNextHopsOn is CheckNextHops against an explicit graph (the
// CheckAt path hands in the mutated clone's link state).
func checkNextHopsOn(net *sim.Network, g *topology.Graph) []Violation {
	nodes := g.Nodes()
	var out []Violation
	for _, dest := range nodes {
		dist := bfsDistances(g, dest)
		for _, id := range nodes {
			if id == dest {
				continue
			}
			rib, ok := sim.Unwrap(net.Node(id)).(NextHopRIB)
			if !ok {
				continue
			}
			want, reachable := dist[id]
			hops, last, looped := walkNextHops(net, id, dest, len(nodes))
			switch {
			case !reachable:
				if last == dest {
					out = append(out, Violation{Node: id, Dest: dest, Kind: "phantom-route",
						Detail: "reached an unreachable destination"})
				} else if nh := rib.NextHop(dest); nh != routing.None {
					out = append(out, Violation{Node: id, Dest: dest, Kind: "phantom-route",
						Detail: fmt.Sprintf("next hop %v toward unreachable destination", nh)})
				}
			case looped:
				out = append(out, Violation{Node: id, Dest: dest, Kind: "loop",
					Detail: fmt.Sprintf("next-hop walk did not terminate (stuck near %v)", last)})
			case last != dest:
				out = append(out, Violation{Node: id, Dest: dest, Kind: "missing-route",
					Detail: fmt.Sprintf("walk dead-ends at %v after %d hops", last, hops)})
			case hops != want:
				out = append(out, Violation{Node: id, Dest: dest, Kind: "detour",
					Detail: fmt.Sprintf("walk takes %d hops, shortest path is %d", hops, want)})
			}
		}
	}
	return out
}

// walkNextHops follows next-hop pointers from id toward dest for at
// most maxHops steps. It returns the hop count, the final node reached,
// and whether the walk exceeded the hop budget (a forwarding loop).
func walkNextHops(net *sim.Network, id, dest routing.NodeID, maxHops int) (int, routing.NodeID, bool) {
	cur := id
	for hops := 0; hops <= maxHops; hops++ {
		if cur == dest {
			return hops, cur, false
		}
		rib, ok := sim.Unwrap(net.Node(cur)).(NextHopRIB)
		if !ok {
			return hops, cur, false
		}
		nh := rib.NextHop(dest)
		if nh == routing.None {
			return hops, cur, false
		}
		cur = nh
	}
	return maxHops, cur, true
}

// bfsDistances returns hop-count distances to dest over the undirected
// topology; absent keys are unreachable.
func bfsDistances(g *topology.Graph, dest routing.NodeID) map[routing.NodeID]int {
	dist := map[routing.NodeID]int{dest: 0}
	queue := []routing.NodeID{dest}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if _, seen := dist[nb.ID]; seen {
				continue
			}
			dist[nb.ID] = dist[cur] + 1
			queue = append(queue, nb.ID)
		}
	}
	return dist
}
