// Package solver computes the converged policy routing state of a
// topology directly, without running a timed protocol: for every
// destination it finds the stable assignment of best policy-compliant
// routes under the Gao–Rexford policy (internal/policy).
//
// The solver serves three purposes in the reproduction:
//
//   - It generates each node's selected path set, from which local
//     P-graphs are built for the paper's static measurements
//     (Tables 4–5) and the immediate-overhead analysis (Figure 5).
//   - It is the ground truth the protocol implementations (BGP and
//     Centaur) are checked against in integration tests.
//   - Its per-destination routine is the "local solver" complexity
//     baseline discussed in §6.3.
//
// Algorithm: per destination, an untimed best-response fixpoint over
// full paths. Each node repeatedly re-selects its best candidate among
// its neighbors' current routes — subject to the Gao–Rexford export rule
// and the receiver-side loop check (a node rejects a neighbor route
// whose path already contains it) — and every change re-activates the
// node's neighbors. Distance-only relaxations (Dijkstra/Bellman–Ford)
// are not sound for this preference structure: route rank is not
// monotone in distance, and sibling re-export without a loop check
// counts to infinity (a node happily adopts a "sibling" route that loops
// back through itself). Carrying full paths gives the protocol's exact
// semantics; under Gao–Rexford policies the stable solution is unique
// (preferences are strict via the deterministic tie-break), so the
// fixpoint converges to the same state BGP and Centaur converge to.
//
// One engine runs that fixpoint (incState, incremental.go), and it
// converges to the unique state from any initial assignment: a cold
// solve (SolveOpts, SolveShards) starts each destination from the empty
// assignment with the destination's neighbours activated, and Resolve
// starts the destinations a flip batch can change from their previous
// routes with the flipped links' endpoints activated.
//
// Storage comes in two layouts (Layout). The dense layout keeps
// flat next/class/dist rows per destination — fastest to read, Θ(N²)
// at 7 bytes per entry. The sharded layout (packed.go) bit-packs
// entries into per-shard arenas and derives the class from the
// adjacency, cutting ~39 GB to ~6 GB at 75k nodes; the solver switches
// to it at autoShardNodes. Both layouts answer every query and every
// incremental Resolve identically — the layout is a storage choice,
// never a semantic one.
package solver

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/topology"
)

// noRoute marks an unreachable (destination, node) pair in the dense
// next-hop tables.
const noRoute = int32(-1)

// Layout selects the Solution's table storage. The zero value picks
// LayoutDense below autoShardNodes nodes and LayoutSharded at or above
// it.
type Layout uint8

const (
	// LayoutDense stores flat per-destination next/class/dist rows.
	LayoutDense Layout = iota + 1
	// LayoutSharded stores bit-packed rows in per-shard arenas
	// (packed.go) — ~7x smaller on AS-like graphs, same answers.
	LayoutSharded
)

func (l Layout) String() string {
	switch l {
	case LayoutDense:
		return "dense"
	case LayoutSharded:
		return "sharded"
	default:
		return "auto"
	}
}

// Solution holds converged best routes for every (node, destination)
// pair: next hops, route classes, and hop distances.
type Solution struct {
	topo *topology.Graph
	idx  *topology.Index
	opts Options
	// Dense layout: next[d][v] is the dense position of v's next hop
	// toward destination d, noRoute if unreachable, or v itself when
	// v == d; class[d][v] is the policy.RouteClass of v's best route
	// (0 when unreachable); dist[d][v] is its hop count. All nil under
	// the sharded layout.
	next  [][]int32
	class [][]uint8
	dist  [][]uint16
	// pk is the sharded packed table; nil under the dense layout.
	pk *packedTable
	// patched is non-nil only inside a Resolve pass: it maps adjacency
	// slots whose classIn was just patched to their pre-patch value, so
	// packed class reads reflect the state the stored routes were
	// computed under (the dense layout stores classes and needs none of
	// this).
	patched map[int32]uint8
	// adj is the dense adjacency the tables were computed against. The
	// incremental path (Resolve, incremental.go) keeps it in sync with
	// topo as links flip.
	adj *adjacency
	// rev is the reverse next-hop index: rev[s] is a destination bitmap
	// with bit d set iff next[d][v] == adj.nbr[s] for the slot's owner v.
	// Built lazily by ensureRev, maintained by the incremental write-back.
	// Dense layout only: at sharded scale the bitmaps would cost Θ(E·N/8)
	// (~3 GB at 75k nodes), so the sharded path answers the same queries
	// with packed column scans instead.
	rev     [][]uint64
	revOnce sync.Once
	// inc is the reusable incremental-solve scratch (see incremental.go).
	inc *incState
}

// Options parameterizes the solver's policy details and table storage.
type Options struct {
	// TieBreak selects the within-class preference model; it must match
	// the policy.GaoRexford the protocols run so converged states are
	// comparable.
	TieBreak policy.TieBreakMode
	// layout forces the table storage; the zero value picks dense
	// below autoShardNodes and sharded at or above. Only tests force it.
	layout Layout
	// destsPerShard is the number of destination rows per shard arena
	// in the sharded layout; 0 means defaultShardDests. Only tests set
	// it.
	destsPerShard int
}

// sharded reports whether the options select the packed layout for an
// n-node graph.
func (o Options) sharded(n int) bool {
	switch o.layout {
	case LayoutDense:
		return false
	case LayoutSharded:
		return true
	default:
		return n >= autoShardNodes
	}
}

// shardDests returns the effective shard size.
func (o Options) shardDests() int {
	if o.destsPerShard > 0 {
		return o.destsPerShard
	}
	return defaultShardDests
}

// Solve computes the full converged routing solution of g under the
// default (lowest-neighbor-ID) tie-break. See SolveOpts.
func Solve(g *topology.Graph) (*Solution, error) {
	return SolveOpts(g, Options{})
}

// SolveOpts computes the full converged routing solution of g, using
// all CPU cores (one destination per task). It returns an error if g is
// empty or if any per-destination fixpoint fails to converge (which
// would indicate a policy oscillation and cannot happen under the
// Gao–Rexford rules this package implements).
func SolveOpts(g *topology.Graph, opts Options) (*Solution, error) {
	idx := topology.NewIndex(g)
	n := idx.Len()
	if n == 0 {
		return nil, fmt.Errorf("solver: empty topology")
	}
	adj := buildAdjacency(g, idx, opts)
	s := &Solution{topo: g, idx: idx, opts: opts, adj: adj}
	if opts.sharded(n) {
		s.pk = newPackedTable(adj, 0, n, opts.shardDests())
	} else {
		s.next = make([][]int32, n)
		s.class = make([][]uint8, n)
		s.dist = make([][]uint16, n)
	}
	if err := solveRange(s, 0, n); err != nil {
		return nil, err
	}
	reportTableBytes(s.MemoryBytes())
	return s, nil
}

// solveRange cold-solves destination positions [lo, hi) of s's table
// across all CPU cores. A cold solve is the warm-start fixpoint run from
// the empty assignment: each destination's row is reset to it (the
// destination routes to itself, no other node has a route), the
// destination's neighbours are activated in slot order, and the result
// is written back like any Resolve. Rows of distinct destinations never
// share memory (packed rows are word-aligned), so the workers write
// without locks.
func solveRange(s *Solution, lo, hi int) error {
	adj := s.adj
	workers := min(runtime.GOMAXPROCS(0), hi-lo)
	var empty []uint64
	if s.pk != nil {
		empty = s.pk.noRouteRow()
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	tasks := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := newIncState(adj.n)
			st.sol, st.adj, st.cold = s, adj, true
			for d := range tasks {
				if s.pk != nil {
					copy(s.pk.row(d), empty)
				} else {
					s.next[d], s.class[d], s.dist[d] = emptyDenseRow(adj.n, d)
				}
				if err := st.resolveDest(d, adj.nbr[adj.off[d]:adj.off[d+1]]); err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				st.writeBack(d)
			}
		}()
	}
	for d := lo; d < hi; d++ {
		tasks <- d
	}
	close(tasks)
	wg.Wait()
	return firstErr
}

// emptyDenseRow returns destination d's dense rows under the empty
// assignment.
func emptyDenseRow(n, d int) ([]int32, []uint8, []uint16) {
	next := make([]int32, n)
	for v := range next {
		next[v] = noRoute
	}
	next[d] = int32(d)
	class := make([]uint8, n)
	class[d] = uint8(policy.ClassOwn)
	return next, class, make([]uint16, n)
}

// adjacency is the dense CSR-style neighbor representation shared
// (read-only) by all per-destination workers.
type adjacency struct {
	n int
	// off[v]..off[v+1] delimit v's slots in the flat arrays.
	off []int32
	// nbr[s] is the neighbor at slot s, in ascending neighbor position
	// order; tie-breaks are applied explicitly during reselection.
	nbr []int32
	// ids maps dense positions back to node IDs (tie-break hashing works
	// on IDs so it matches policy.TieHash exactly).
	ids []routing.NodeID
	// tie selects the within-class preference model.
	tie policy.TieBreakMode
	// classIn[s] is the class of a route v learns from nbr[s].
	classIn []uint8
	// expRel[s] is the relationship nbr[s] sees v as — the argument of
	// the export check when nbr[s] announces to v.
	expRel []uint8
}

func buildAdjacency(g *topology.Graph, idx *topology.Index, opts Options) *adjacency {
	n := idx.Len()
	a := &adjacency{n: n, off: make([]int32, n+1), tie: opts.TieBreak}
	total := 0
	for i := 0; i < n; i++ {
		total += g.Degree(idx.ID(i))
		a.off[i+1] = int32(total)
	}
	a.nbr = make([]int32, total)
	a.classIn = make([]uint8, total)
	a.expRel = make([]uint8, total)
	a.ids = make([]routing.NodeID, n)
	for i := 0; i < n; i++ {
		a.ids[i] = idx.ID(i)
		base := a.off[i]
		for j, nb := range g.Neighbors(idx.ID(i)) {
			s := base + int32(j)
			a.nbr[s] = int32(idx.Pos(nb.ID))
			a.classIn[s] = uint8(policy.ClassOf(nb.Rel))
			a.expRel[s] = uint8(nb.Rel.Invert())
		}
	}
	return a
}

// clone deep-copies the adjacency, so a forked Solution's incremental
// patches never leak into its parent.
func (a *adjacency) clone() *adjacency {
	c := *a
	c.off = slices.Clone(a.off)
	c.nbr = slices.Clone(a.nbr)
	c.ids = slices.Clone(a.ids)
	c.classIn = slices.Clone(a.classIn)
	c.expRel = slices.Clone(a.expRel)
	return &c
}

// exportOK mirrors policy.GaoRexford.Export on dense relationship codes.
func exportOK(cl uint8, rel uint8) bool {
	switch topology.Relationship(rel) {
	case topology.RelCustomer, topology.RelSibling:
		return true
	case topology.RelPeer, topology.RelProvider:
		c := policy.RouteClass(cl)
		return c == policy.ClassOwn || c == policy.ClassCustomer || c == policy.ClassSibling
	default:
		return false
	}
}

// better reports whether candidate (class c, path length plen, via u)
// outranks the current best (bc, bl, bn) at node v for destination dest,
// mirroring policy.GaoRexford.Better exactly. It is a method of the
// adjacency (not incState) because Resolve's addition prefilter ranks
// candidates from the stored tables alone, without any per-destination
// scratch.
func (adj *adjacency) better(v int32, dest int, c uint8, plen int, u int32, bc uint8, bl int, bn int32) bool {
	if c != bc {
		return c < bc
	}
	prefFirst := adj.tie == policy.TieHashedPreferred ||
		(adj.tie == policy.TieOverride && policy.Overridden(adj.ids[v], adj.ids[dest]))
	if prefFirst {
		hu := policy.TieHash(adj.ids[v], adj.ids[u], adj.ids[dest])
		hb := policy.TieHash(adj.ids[v], adj.ids[bn], adj.ids[dest])
		if hu != hb {
			return hu < hb
		}
	}
	if plen != bl {
		return plen < bl
	}
	switch adj.tie {
	case policy.TieHashed:
		hu := policy.TieHash(adj.ids[v], adj.ids[u], adj.ids[dest])
		hb := policy.TieHash(adj.ids[v], adj.ids[bn], adj.ids[dest])
		if hu != hb {
			return hu < hb
		}
	case policy.TieOverride:
		hu := policy.TieHash(adj.ids[v], adj.ids[u], routing.None)
		hb := policy.TieHash(adj.ids[v], adj.ids[bn], routing.None)
		if hu != hb {
			return hu < hb
		}
	}
	return u < bn
}

// containsNode reports whether path p visits node v.
func containsNode(p []int32, v int32) bool {
	for _, x := range p {
		if x == v {
			return true
		}
	}
	return false
}

// pathEqualPrepended reports whether cur equals v followed by rest.
func pathEqualPrepended(cur []int32, v int32, rest []int32) bool {
	if len(cur) != len(rest)+1 || cur == nil {
		return false
	}
	if cur[0] != v {
		return false
	}
	for i, x := range rest {
		if cur[i+1] != x {
			return false
		}
	}
	return true
}

// nextPos returns the dense position of v's next hop toward destination
// position d (noRoute when unreachable, v itself when v is d),
// regardless of layout.
func (s *Solution) nextPos(d int, v int32) int32 {
	if s.pk != nil {
		return s.pk.nextAt(s.adj, d, v)
	}
	return s.next[d][v]
}

// classPos returns the class code of v's best route toward destination
// position d (0 when unreachable), regardless of layout.
func (s *Solution) classPos(d int, v int32) uint8 {
	if s.pk != nil {
		return s.pk.classAt(s.adj, s.patched, d, v)
	}
	return s.class[d][v]
}

// distPos returns the hop count of v's best route toward destination
// position d (0 when unreachable or v == d), regardless of layout.
func (s *Solution) distPos(d int, v int32) uint16 {
	if s.pk != nil {
		return s.pk.distAt(d, v)
	}
	return s.dist[d][v]
}

// Index returns the dense node index the solution is expressed in.
func (s *Solution) Index() *topology.Index { return s.idx }

// Options returns the policy options the solution was computed under.
func (s *Solution) Options() Options { return s.opts }

// Layout returns the storage layout actually in use (never the zero value).
func (s *Solution) Layout() Layout {
	if s.pk != nil {
		return LayoutSharded
	}
	return LayoutDense
}

// MemoryBytes reports the resident size of the routing tables (and the
// reverse index, once built) — the quantity the solver.bytes telemetry
// gauge tracks.
func (s *Solution) MemoryBytes() int64 {
	var b int64
	if s.pk != nil {
		b = s.pk.bytes()
	} else {
		for d := range s.next {
			b += int64(len(s.next[d]))*4 + int64(len(s.class[d])) + int64(len(s.dist[d]))*2
		}
	}
	for _, w := range s.rev {
		b += int64(len(w)) * 8
	}
	return b
}

// Policy returns the policy.GaoRexford instance matching the solution's
// options, for callers that need to replay ranking decisions.
func (s *Solution) Policy() policy.GaoRexford {
	return policy.GaoRexford{TieBreak: s.opts.TieBreak}
}

// Topology returns the graph the solution was computed on.
func (s *Solution) Topology() *topology.Graph { return s.topo }

// Class returns the route class of from's best route to dest, or 0 when
// unreachable.
func (s *Solution) Class(from, dest routing.NodeID) policy.RouteClass {
	f, d := s.idx.Pos(from), s.idx.Pos(dest)
	if f < 0 || d < 0 {
		return 0
	}
	return policy.RouteClass(s.classPos(d, int32(f)))
}

// Path materializes from's best path to dest by following next hops. The
// boolean result is false when dest is unreachable from from.
func (s *Solution) Path(from, dest routing.NodeID) (routing.Path, bool) {
	p, ok := s.AppendPath(nil, from, dest)
	return p[:len(p):len(p)], ok // no spare capacity for a caller's append to share
}

// AppendPath is Path appending to dst, for callers that carve many paths
// out of one buffer; an unreachable dest leaves dst as it was.
func (s *Solution) AppendPath(dst routing.Path, from, dest routing.NodeID) (routing.Path, bool) {
	f, d := s.idx.Pos(from), s.idx.Pos(dest)
	if f < 0 || d < 0 {
		return dst, false
	}
	if f == d {
		return append(dst, from), true
	}
	if s.nextPos(d, int32(f)) == noRoute {
		return dst, false
	}
	lo := len(dst)
	dst = slices.Grow(dst, int(s.distPos(d, int32(f)))+1)
	cur := int32(f)
	for cur != int32(d) {
		dst = append(dst, s.idx.ID(int(cur)))
		cur = s.nextPos(d, cur)
		if len(dst)-lo > s.idx.Len() {
			// Defensive: a loop here would mean the fixpoint failed.
			return dst[:lo], false
		}
	}
	return append(dst, dest), true
}

// PathSet returns from's selected path to every reachable destination
// other than itself — the input BuildGraph (paper Table 2) consumes.
func (s *Solution) PathSet(from routing.NodeID) map[routing.NodeID]routing.Path {
	out := make(map[routing.NodeID]routing.Path, s.idx.Len()-1)
	for i := 0; i < s.idx.Len(); i++ {
		dest := s.idx.ID(i)
		if dest == from {
			continue
		}
		if p, ok := s.Path(from, dest); ok {
			out[dest] = p
		}
	}
	return out
}
