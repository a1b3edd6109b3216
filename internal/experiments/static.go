// Package experiments reproduces every table and figure of the paper's
// evaluation (§5):
//
//   - Table 3: characteristics of the input topologies.
//   - Table 4: structural characteristics of P-graphs (average links and
//     Permission Lists per local P-graph).
//   - Table 5: distribution of the number of entries per Permission List.
//   - Figure 5: immediate update-message overhead of a single link
//     failure, Centaur vs BGP, without cascading effects.
//   - Figure 6: CDF of convergence time after link flips, Centaur vs BGP.
//   - Figure 7: convergence load (message count) per flip, Centaur vs
//     OSPF.
//   - Figure 8: update overhead vs topology size, Centaur vs BGP.
//
// Each runner returns a typed result whose String method renders the
// same rows or series the paper reports; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"centaur/internal/metrics"
	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// Scale selects the size of the measured-topology experiments. The
// paper used ~26k/20k-node snapshots; the default reproduction scale of
// 4,000 nodes keeps the all-pairs analyses laptop-sized while preserving
// the structural quantities (see DESIGN.md §2.1).
type Scale struct {
	// Nodes is the node count for the CAIDA-like and HeTop-like
	// topologies.
	Nodes int
	// Seed drives topology generation and link sampling.
	Seed int64
}

// Table3Row is one row of Table 3: a topology and its characteristics.
type Table3Row struct {
	Name  string
	Stats topology.Stats
	Graph *topology.Graph
}

// Table3Result reproduces Table 3 for the generated stand-ins of the
// paper's CAIDA and HeTop snapshots.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 generates the two measured-like topologies at the given scale
// and reports their characteristics.
func Table3(sc Scale) (*Table3Result, error) {
	caida, err := topogen.CAIDALike(sc.Nodes, sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating CAIDA-like topology: %w", err)
	}
	hetop, err := topogen.HeTopLike(sc.Nodes, sc.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating HeTop-like topology: %w", err)
	}
	return &Table3Result{Rows: []Table3Row{
		{Name: "CAIDA-like", Stats: caida.Stats(), Graph: caida},
		{Name: "HeTop-like", Stats: hetop.Stats(), Graph: hetop},
	}}, nil
}

// String renders the Table 3 rows.
func (r *Table3Result) String() string {
	var b strings.Builder
	b.WriteString("Table 3. Characteristics of input topologies.\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %9s %9s %8s\n", "Name", "Node", "Link", "Peering", "Provider", "Sibling")
	for _, row := range r.Rows {
		s := row.Stats
		fmt.Fprintf(&b, "%-12s %8d %8d %9d %9d %8d\n", row.Name, s.Nodes, s.Links, s.Peering, s.Provider, s.Sibling)
	}
	return b.String()
}

// PGraphStats aggregates the per-node local P-graph structure of one
// topology: the Table 4 averages and the Table 5 entry-count histogram.
type PGraphStats struct {
	Name string
	// Nodes is the number of P-graphs built (one per node).
	Nodes int
	// AvgLinks is the average number of links per local P-graph
	// (Table 4, "No. of links").
	AvgLinks float64
	// AvgPermissionLists is the average number of links carrying a
	// Permission List per local P-graph (Table 4, "No. of Permission
	// Lists").
	AvgPermissionLists float64
	// Entries is the distribution of NumEntries over all Permission
	// Lists of all P-graphs (Table 5).
	Entries *metrics.Histogram
}

// localGraphs builds one node's local P-graph after another in the same
// storage: the graph, the path list and the paths' backing array are
// recycled, so a sweep over every node allocates little beyond the
// Permission Lists. A built graph is valid until the next build.
type localGraphs struct {
	g     *pgraph.Graph
	paths []routing.Path
	hops  routing.Path // backing array of the paths
}

// build returns node's local P-graph (paper Table 2's BuildGraph over
// the node's selected path set, Solution.PathSet without the map).
func (lg *localGraphs) build(sol *solver.Solution, node routing.NodeID) (*pgraph.Graph, error) {
	idx := sol.Index()
	lg.paths, lg.hops = lg.paths[:0], lg.hops[:0]
	for i := 0; i < idx.Len(); i++ {
		dest := idx.ID(i)
		if dest == node {
			continue
		}
		lo := len(lg.hops)
		var ok bool
		if lg.hops, ok = sol.AppendPath(lg.hops, node, dest); ok {
			lg.paths = append(lg.paths, lg.hops[lo:len(lg.hops):len(lg.hops)])
		}
	}
	g, err := pgraph.BuildInto(lg.g, idx, node, lg.paths)
	if err != nil {
		return nil, fmt.Errorf("experiments: building P-graph for %v: %w", node, err)
	}
	lg.g = g
	return g, nil
}

// ComputePGraphStats builds the local P-graph of every node from the
// converged solution and aggregates Tables 4 and 5, in parallel across
// nodes.
func ComputePGraphStats(name string, sol *solver.Solution) (*PGraphStats, error) {
	idx := sol.Index()
	n := idx.Len()
	type nodeCounts struct {
		links, lists int64
		entries      []int
	}
	counts := make([]nodeCounts, n)
	err := parallelEachWith(n, 0, func(lg *localGraphs, i int) error {
		g, err := lg.build(sol, idx.ID(i))
		if err != nil {
			return err
		}
		c := &counts[i]
		c.links = int64(g.NumLinks())
		c.lists = int64(g.NumPermissionLists())
		for _, lp := range g.PermissionLists() {
			c.entries = append(c.entries, lp.Perm.NumEntries())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PGraphStats{Name: name, Nodes: n, Entries: metrics.NewHistogram()}
	var links, lists int64
	for _, c := range counts {
		links += c.links
		lists += c.lists
		for _, e := range c.entries {
			out.Entries.Add(e)
		}
	}
	out.AvgLinks = float64(links) / float64(n)
	out.AvgPermissionLists = float64(lists) / float64(n)
	return out, nil
}

// Table45Result bundles the P-graph structure of both topologies:
// Table 4 (averages) and Table 5 (entry distribution).
type Table45Result struct {
	Stats []*PGraphStats
}

// SolvedTopology pairs a Table 3 topology with its converged solution,
// so downstream stages (Tables 4–5, the Permission List overhead
// measurement, Figure 5, the multipath extension) share one
// all-destinations solve instead of each re-running the fixpoint on an
// identical graph.
type SolvedTopology struct {
	Name string
	Sol  *solver.Solution
}

// SolveTable3 solves every Table 3 topology once under the given
// tie-break mode.
func SolveTable3(t3 *Table3Result, tb policy.TieBreakMode) ([]SolvedTopology, error) {
	out := make([]SolvedTopology, 0, len(t3.Rows))
	for _, row := range t3.Rows {
		sol, err := solver.SolveOpts(row.Graph, solver.Options{TieBreak: tb})
		if err != nil {
			return nil, fmt.Errorf("experiments: solving %s: %w", row.Name, err)
		}
		out = append(out, SolvedTopology{Name: row.Name, Sol: sol})
	}
	return out, nil
}

// Table4And5From computes the P-graph structure tables from pre-solved
// topologies.
func Table4And5From(solved []SolvedTopology) (*Table45Result, error) {
	out := &Table45Result{}
	for _, s := range solved {
		st, err := ComputePGraphStats(s.Name, s.Sol)
		if err != nil {
			return nil, err
		}
		out.Stats = append(out.Stats, st)
	}
	return out, nil
}

// String renders Tables 4 and 5.
func (r *Table45Result) String() string {
	var b strings.Builder
	b.WriteString("Table 4. Structural characteristics of P-graphs (averages per node).\n")
	fmt.Fprintf(&b, "%-28s", "")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, " %12s", s.Name)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "No. of links")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, " %12.0f", s.AvgLinks)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-28s", "No. of Permission Lists")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, " %12.0f", s.AvgPermissionLists)
	}
	b.WriteString("\n\n")
	b.WriteString("Table 5. # entries of Permission Lists.\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %12s\n", "", "#entries=1", "#entries=2", "#entries=3", "#entries>3")
	for _, s := range r.Stats {
		fmt.Fprintf(&b, "%-12s %11.1f%% %11.1f%% %11.1f%% %11.1f%%\n", s.Name,
			100*s.Entries.Fraction(1), 100*s.Entries.Fraction(2),
			100*s.Entries.Fraction(3), 100*s.Entries.FractionAbove(3))
	}
	return b.String()
}

// Figure5Result holds the immediate single-link-failure overhead: one
// sample per failed link, under two accounting models.
//
// The RootCause metrics implement the paper's §5.2 measurement — the
// messages that MUST be generated at the instant of the failure, before
// any repair and excluding all "cascading effects": for Centaur, the
// withdrawal of the one failed link, sent to every neighbor that had
// been told about that link (the root cause notification alone lets the
// rest of the network invalidate every path through it); for BGP, one
// update (withdrawal or replacement) per affected destination per
// neighbor, because path vector's only failure signal is
// per-destination. The ratio between the two is the paper's headline
// "roughly 100 to 1000 times fewer update messages".
//
// FullRepairCentaur is a conservative variant this reproduction adds:
// it also charges Centaur the complete first-hop delta of its exported
// views (replacement path links and Permission List changes). This
// variant shows the link-level advantage eroding to roughly parity when
// every rerouted destination diverges toward its own distinct tail — a
// finding EXPERIMENTS.md discusses.
type Figure5Result struct {
	Name             string
	RootCauseCentaur *metrics.Dist
	RootCauseBGP     *metrics.Dist
	// RootCauseRatio is the per-link BGP/Centaur message ratio.
	RootCauseRatio    *metrics.Dist
	FullRepairCentaur *metrics.Dist
}

// Figure5 measures, for a sample of links, the number of update
// messages generated as the immediate result of that single link's
// failure — no cascading, exactly the paper's §5.2 setup: only the two
// endpoint nodes react. sampleLinks caps the number of links measured
// (0 = all links).
func Figure5(name string, sol *solver.Solution, sampleLinks int, seed int64) (*Figure5Result, error) {
	g := sol.Topology()
	edges := g.Edges()
	if sampleLinks > 0 && sampleLinks < len(edges) {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		edges = edges[:sampleLinks]
	}
	res := &Figure5Result{
		Name:              name,
		RootCauseCentaur:  metrics.NewDist(len(edges)),
		RootCauseBGP:      metrics.NewDist(len(edges)),
		RootCauseRatio:    metrics.NewDist(len(edges)),
		FullRepairCentaur: metrics.NewDist(len(edges)),
	}
	// A failure is measured at each endpoint of its link. The samples are
	// grouped by endpoint, so the failure-independent node state (selected
	// paths, route classes, exported views) is built once per distinct
	// endpoint and dropped as soon as its samples are measured.
	type failure struct {
		sample, side int
		v            routing.NodeID
	}
	var endpoints []routing.NodeID // in order of first appearance
	failures := make(map[routing.NodeID][]failure, 2*len(edges))
	for i, e := range edges {
		for side, uv := range [2][2]routing.NodeID{{e.A, e.B}, {e.B, e.A}} {
			if _, seen := failures[uv[0]]; !seen {
				endpoints = append(endpoints, uv[0])
			}
			failures[uv[0]] = append(failures[uv[0]], failure{sample: i, side: side, v: uv[1]})
		}
	}
	impacts := make([][2]edgeImpact, len(edges))
	if err := parallelEach(len(endpoints), 0, func(k int) error {
		u := endpoints[k]
		st := newNodeStatic(sol, u)
		for _, f := range failures[u] {
			impacts[f.sample][f.side] = st.failureImpact(sol, u, f.v)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, ab := range impacts {
		a, b := ab[0], ab[1]
		rc := float64(a.rootCause + b.rootCause)
		bg := float64(a.bgpMsgs + b.bgpMsgs)
		res.RootCauseCentaur.Add(rc)
		res.RootCauseBGP.Add(bg)
		res.FullRepairCentaur.Add(float64(a.delta[0] + a.delta[1] + b.delta[0] + b.delta[1]))
		if rc > 0 {
			res.RootCauseRatio.Add(bg / rc)
		}
	}
	return res, nil
}

// nodeStatic caches a node's failure-independent routing state, so
// Figure 5 computes it once per endpoint instead of once per accounting
// model per sample.
type nodeStatic struct {
	paths   map[routing.NodeID]routing.Path
	classes map[routing.NodeID]policy.RouteClass
	// views holds, per relationship some neighbor has to the node, the
	// announced link view of the paths the node's export filter lets
	// through to such a neighbor. policy.Policy.Export reads nothing else
	// of a neighbor, so the view a particular neighbor nb is sent is the
	// relationship's minus the paths that contain nb (the loop filter).
	views map[topology.Relationship]*pgraph.View
	// through lists, aligned with the node's neighbor list, the
	// destinations whose selected path contains that neighbor.
	through [][]routing.NodeID
}

// newNodeStatic materializes u's path set, class map and export views.
func newNodeStatic(sol *solver.Solution, u routing.NodeID) *nodeStatic {
	pol := sol.Policy()
	nbs := sol.Topology().Neighbors(u)
	paths := sol.PathSet(u)
	st := &nodeStatic{
		paths:   paths,
		classes: make(map[routing.NodeID]policy.RouteClass, len(paths)),
		views:   make(map[topology.Relationship]*pgraph.View),
		through: make([][]routing.NodeID, len(nbs)),
	}
	nbAt := make(map[routing.NodeID]int, len(nbs))
	for i, nb := range nbs {
		nbAt[nb.ID] = i
	}
	for d, p := range paths {
		st.classes[d] = sol.Class(u, d)
		for _, x := range p[1:] {
			if i, ok := nbAt[x]; ok {
				st.through[i] = append(st.through[i], d)
			}
		}
	}
	dests := make([]routing.NodeID, 0, len(paths))
	for d := range paths {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	exported := make([]routing.Path, 0, len(dests))
	for _, nb := range nbs {
		if st.views[nb.Rel] != nil {
			continue
		}
		exported = exported[:0]
		for _, d := range dests {
			if pol.Export(u, st.classes[d], nb.Rel) {
				exported = append(exported, paths[d])
			}
		}
		view, err := pgraph.ViewOf(sol.Index(), u, exported)
		if err != nil {
			panic(fmt.Sprintf("experiments: export view of %v: %v", u, err)) // the solver's paths are valid
		}
		st.views[nb.Rel] = view
	}
	return st
}

// edgeImpact is one endpoint's immediate reaction to a link failure
// under the three accounting models of Figure 5.
type edgeImpact struct {
	rootCause int
	bgpMsgs   int
	delta     [2]int
}

// failureImpact measures endpoint u's immediate reaction to losing its
// link to v. The destinations routed through the failed link come from
// the solution's reverse next-hop index, and their best replacements are
// computed once for the BGP and the Centaur accounting.
//
// Centaur's side is read off the incrementally maintained export views
// (paper §4.3.2; DESIGN.md "Figure 5 accounting"), one surviving neighbor
// nb at a time: withdrawing the paths through nb turns the
// relationship's view into nb's, whose holding the failed link is the
// root cause bit; moving the affected destinations to their replacements
// makes Flush return the full-repair Δ; then the view is put back.
func (st *nodeStatic) failureImpact(sol *solver.Solution, u, v routing.NodeID) edgeImpact {
	pol := sol.Policy()
	via := sol.DestsVia(u, v)
	repl := replacements(sol, st, via, u, v)
	out := edgeImpact{bgpMsgs: immediateBGPMsgs(sol, st, via, repl, u, v)}
	for i, nb := range sol.Topology().Neighbors(u) {
		if nb.ID == v {
			continue
		}
		view := st.views[nb.Rel]
		// exported is what u announces to a neighbor of nb's relationship
		// for a route with path p and class cl.
		exported := func(p routing.Path, cl policy.RouteClass) routing.Path {
			if !pol.Export(u, cl, nb.Rel) {
				return nil
			}
			return p
		}
		for _, d := range st.through[i] {
			view.Set(d, nil)
		}
		view.Flush()
		if view.Graph().HasLink(routing.Link{From: u, To: v}) {
			out.rootCause++
		}
		for _, d := range via {
			best := repl[d] // the zero Candidate when no route survives
			if best.Path.Contains(nb.ID) {
				best.Path = nil
			}
			view.Set(d, exported(best.Path, best.Class))
		}
		delta := view.Flush()
		out.delta[0] += len(delta.Adds)
		out.delta[1] += len(delta.Removes)
		for _, ds := range [2][]routing.NodeID{via, st.through[i]} {
			for _, d := range ds {
				view.Set(d, exported(st.paths[d], st.classes[d]))
			}
		}
		view.Flush()
	}
	return out
}

// replacements computes, for every destination u currently routes
// through v (via, from Solution.DestsVia), the best replacement among
// the remaining neighbors' (still unchanged) announced paths.
// Destinations with no surviving route are absent.
func replacements(sol *solver.Solution, st *nodeStatic, via []routing.NodeID, u, v routing.NodeID) map[routing.NodeID]policy.Candidate {
	out := make(map[routing.NodeID]policy.Candidate, len(via))
	for _, d := range via {
		if best := bestReplacement(sol, u, v, d); len(best.Path) > 0 {
			out[d] = best
		}
	}
	return out
}

// bestReplacement re-runs u's decision process for destination d over
// the announced routes of every neighbor except v, applying the same
// export and loop filters the protocols do. A zero Candidate means no
// neighbor offers a usable route.
func bestReplacement(sol *solver.Solution, u, v, d routing.NodeID) policy.Candidate {
	g := sol.Topology()
	pol := sol.Policy()
	var best policy.Candidate
	for _, nb := range g.Neighbors(u) {
		if nb.ID == v {
			continue
		}
		p, ok := sol.Path(nb.ID, d)
		if !ok || p.Contains(u) {
			continue
		}
		if !pol.Export(nb.ID, sol.Class(nb.ID, d), nb.Rel.Invert()) {
			continue
		}
		cand := policy.Candidate{Path: p.Prepend(u), Class: policy.ClassOf(nb.Rel), Via: nb.ID}
		if len(best.Path) == 0 || pol.Better(u, cand, best) {
			best = cand
		}
	}
	return best
}

// immediateBGPMsgs counts the updates endpoint u sends right after its
// link to v fails: for every destination routed through v (via), one
// announce/withdraw per neighbor whose advertised state changes when
// the route moves to its best replacement (repl).
func immediateBGPMsgs(sol *solver.Solution, st *nodeStatic, via []routing.NodeID, repl map[routing.NodeID]policy.Candidate, u, v routing.NodeID) int {
	g := sol.Topology()
	pol := sol.Policy()
	msgs := 0
	for _, d := range via {
		oldPath := st.paths[d]
		oldClass := st.classes[d]
		best := repl[d]
		// One message per neighbor whose advertised state changes.
		for _, nb := range g.Neighbors(u) {
			if nb.ID == v {
				continue
			}
			hadOld := pol.Export(u, oldClass, nb.Rel) && !oldPath.Contains(nb.ID)
			hasNew := len(best.Path) > 0 && pol.Export(u, best.Class, nb.Rel) && !best.Path.Contains(nb.ID)
			switch {
			case hadOld && hasNew:
				msgs++ // replacement announcement
			case hadOld && !hasNew:
				msgs++ // withdrawal
			case !hadOld && hasNew:
				msgs++ // new announcement
			}
		}
	}
	return msgs
}

// String renders the Figure 5 summary: the distributions and the
// headline ratio (the paper reports "roughly 100 to 1000 times fewer").
func (r *Figure5Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5. Immediate overhead of a single link failure (%s).\n", r.Name)
	fmt.Fprintf(&b, "  Centaur msgs/failure (root cause):  %s\n", r.RootCauseCentaur.Summary())
	fmt.Fprintf(&b, "  BGP     msgs/failure:               %s\n", r.RootCauseBGP.Summary())
	fmt.Fprintf(&b, "  BGP/Centaur ratio:                  %s\n", r.RootCauseRatio.Summary())
	fmt.Fprintf(&b, "  ratio of means: %.1fx\n", safeRatio(r.RootCauseBGP.Mean(), r.RootCauseCentaur.Mean()))
	fmt.Fprintf(&b, "  Centaur msgs/failure (full repair): %s\n", r.FullRepairCentaur.Summary())
	b.WriteString(renderCDFs(25, []namedDist{
		{"centaur-rootcause", r.RootCauseCentaur},
		{"centaur-fullrepair", r.FullRepairCentaur},
		{"bgp", r.RootCauseBGP},
	}))
	return b.String()
}

// safeRatio returns a/b, or 0 when b is zero or either operand is NaN
// (empty metrics.Dist summaries answer NaN).
func safeRatio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// namedDist labels a distribution in a rendered CDF block.
type namedDist struct {
	name string
	dist *metrics.Dist
}

// renderCDFs prints aligned CDF tables for several distributions.
func renderCDFs(points int, dists []namedDist) string {
	var b strings.Builder
	for _, nd := range dists {
		fmt.Fprintf(&b, "  CDF %s:", nd.name)
		for _, pt := range nd.dist.CDF(points) {
			fmt.Fprintf(&b, " (%.4g, %.2f)", pt.X, pt.F)
		}
		b.WriteString("\n")
	}
	return b.String()
}
