// Benchmarks regenerating the tables and figures of the paper's
// evaluation (§5) at reduced, benchmark-friendly scale, plus the
// ablations called out in DESIGN.md §6 and a few whole-structure
// benchmarks (derivation, diffing, the solver, the baselines' cold
// starts). Run with:
//
//	go test -run '^$' -bench . -benchmem
//
// Four harnesses, four questions:
//   - these root benchmarks: what a paper figure or a §6 ablation costs
//     at bench scale;
//   - each package's own benchmarks (bench_test.go files under
//     internal/): what one layer costs, with exact allocations;
//   - benchmark/ (sh benchmark/run.sh): the ruler every change is
//     compared with, five fixed workloads with end-to-end and per-layer
//     metrics;
//   - cmd/centaur-bench: the full-scale reproduction and its report.
package centaur

import (
	"testing"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/bloom"
	"centaur/internal/centaur"
	"centaur/internal/experiments"
	"centaur/internal/ospf"
	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// benchScale keeps each iteration sub-second; the shapes (who wins, by
// what factor) match the full-scale runs recorded in EXPERIMENTS.md.
const (
	benchTopoNodes = 300
	benchSimNodes  = 100
	benchFlips     = 8
)

// --- Table and figure benchmarks -----------------------------------

// BenchmarkTable3Topologies measures generation of the two measured-like
// input topologies (Table 3).
func BenchmarkTable3Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(experiments.Scale{Nodes: benchTopoNodes, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].Stats.Links == 0 {
			b.Fatal("degenerate topology")
		}
	}
}

// BenchmarkTable4PGraphStats measures the all-nodes P-graph construction
// behind Table 4 (average links and Permission Lists per P-graph).
func BenchmarkTable4PGraphStats(b *testing.B) {
	sol := benchSolution(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := experiments.ComputePGraphStats("bench", sol)
		if err != nil {
			b.Fatal(err)
		}
		if st.AvgLinks == 0 {
			b.Fatal("no links")
		}
	}
}

// BenchmarkTable5PermissionLists measures extraction of the Permission
// List entry distribution (Table 5) for a single node's P-graph.
func BenchmarkTable5PermissionLists(b *testing.B) {
	sol := benchSolution(b)
	node := sol.Index().ID(benchTopoNodes / 2)
	paths := sol.PathSet(node)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := pgraph.Build(node, paths)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, lp := range g.PermissionLists() {
			total += lp.Perm.NumEntries()
		}
		_ = total
	}
}

// BenchmarkFigure5ImmediateOverhead measures the immediate
// single-link-failure message analysis (Figure 5). Every iteration
// samples the same 20 links: the cost of a sample depends on the degree
// of its endpoints, so a per-iteration seed would make ns/op a function
// of b.N.
func BenchmarkFigure5ImmediateOverhead(b *testing.B) {
	sol := benchSolution(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure5("bench", sol, 20, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.RootCauseBGP.N() == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFigure6Convergence measures the Centaur-vs-BGP convergence
// time experiment (Figure 6) at reduced scale.
func BenchmarkFigure6Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure6(experiments.Scenario{
			Nodes: benchSimNodes, LinksPerNode: 2, Flips: benchFlips,
			Seed: int64(i + 1), MRAI: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Centaur.Mean() > res.BGP.Mean() {
			b.Fatalf("centaur mean %.2fms above MRAI BGP %.2fms", res.Centaur.Mean(), res.BGP.Mean())
		}
	}
}

// BenchmarkFigure7ConvergenceLoad measures the Centaur-vs-OSPF load
// experiment (Figure 7) at reduced scale.
func BenchmarkFigure7ConvergenceLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure7(experiments.Scenario{
			Nodes: benchSimNodes, LinksPerNode: 2, Flips: benchFlips, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Centaur.N() == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFigure8Scalability measures one sweep point of the
// scalability comparison (Figure 8).
func BenchmarkFigure8Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure8(experiments.Scenario{
			Sizes: []int{benchSimNodes}, LinksPerNode: 2, Flips: benchFlips, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if p := res.Points[0]; p.BGPMsgs <= p.CentaurMsgs {
			b.Fatalf("n=%d: BGP %.1f msgs not above Centaur %.1f", p.Nodes, p.BGPMsgs, p.CentaurMsgs)
		}
	}
}

// --- Core data structure micro benchmarks --------------------------

// BenchmarkDerivePath measures DerivePath (paper Table 1) across every
// destination of a built P-graph.
func BenchmarkDerivePath(b *testing.B) {
	sol := benchSolution(b)
	node := sol.Index().ID(0)
	g, err := pgraph.Build(node, sol.PathSet(node))
	if err != nil {
		b.Fatal(err)
	}
	dests := g.Dests()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dests[i%len(dests)]
		if _, ok := g.DerivePath(d); !ok {
			b.Fatalf("no path to %v", d)
		}
	}
}

// BenchmarkDeriveAll measures deriving every destination's path from
// one built P-graph with a fresh result map per call.
func BenchmarkDeriveAll(b *testing.B) {
	sol := benchSolution(b)
	node := sol.Index().ID(0)
	g, err := pgraph.Build(node, sol.PathSet(node))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if paths := g.DeriveAllInto(nil); len(paths) == 0 {
			b.Fatal("no paths derived")
		}
	}
}

// BenchmarkDeriveAllInto is BenchmarkDeriveAll with the result map and
// backtrace scratch reused across calls — the allocation-free variant
// loops over P-graphs use.
func BenchmarkDeriveAllInto(b *testing.B) {
	sol := benchSolution(b)
	node := sol.Index().ID(0)
	g, err := pgraph.Build(node, sol.PathSet(node))
	if err != nil {
		b.Fatal(err)
	}
	buf := g.DeriveAllInto(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf = g.DeriveAllInto(buf); len(buf) == 0 {
			b.Fatal("no paths derived")
		}
	}
}

// BenchmarkDiff measures export-view diffing, the inner loop of the
// steady phase (Δ computation, §4.3.2).
func BenchmarkDiff(b *testing.B) {
	sol := benchSolution(b)
	node := sol.Index().ID(0)
	g1, err := pgraph.Build(node, sol.PathSet(node))
	if err != nil {
		b.Fatal(err)
	}
	// Perturb: drop one destination to force a non-empty delta.
	paths := sol.PathSet(node)
	for d := range paths {
		delete(paths, d)
		break
	}
	g2, err := pgraph.Build(node, paths)
	if err != nil {
		b.Fatal(err)
	}
	v1, v2 := g1.LinkInfos(), g2.LinkInfos()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := pgraph.Diff(v1, v2); d.Empty() {
			b.Fatal("expected a delta")
		}
	}
}

// BenchmarkSolver measures the static all-pairs policy solver (§6.3's
// complexity discussion) on the benchmark topology.
func BenchmarkSolver(b *testing.B) {
	g := benchTopology(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveOpts(g, solver.Options{TieBreak: policy.TieOverride}); err != nil {
			b.Fatal(err)
		}
	}
}

// incBenchNodes is the scale of the incremental-vs-cold solver pair:
// the 4,000-node CAIDA-like topology of the full-scale report, where
// the warm-start speedup claim is measured.
const incBenchNodes = 4000

func incBenchSetup(b *testing.B) (*topology.Graph, *solver.Solution) {
	b.Helper()
	g, err := topogen.CAIDALike(incBenchNodes, 1)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := solver.SolveOpts(g, solver.Options{TieBreak: policy.TieHashed})
	if err != nil {
		b.Fatal(err)
	}
	return g, sol
}

// BenchmarkSolveCold measures a from-scratch SolveOpts at 4k nodes — the
// baseline the incremental path is compared against.
func BenchmarkSolveCold(b *testing.B) {
	g, _ := incBenchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveOpts(g, solver.Options{TieBreak: policy.TieHashed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveIncremental measures Solution.Resolve at 4k nodes: one
// iteration is a full fail+restore cycle, for a single link and for a
// 1%-of-links batch. The reverse next-hop index is primed in setup, as
// it would be at steady state.
func BenchmarkSolveIncremental(b *testing.B) {
	g, sol := incBenchSetup(b)
	edges := g.Edges()
	cycle := func(b *testing.B, flip []topology.Edge) {
		b.Helper()
		flips := make([]solver.Flip, len(flip))
		for i, e := range flip {
			flips[i] = solver.Flip{A: e.A, B: e.B}
		}
		apply := func(down bool) {
			for _, e := range flip {
				if down {
					g.RemoveEdge(e.A, e.B)
				} else if err := g.AddEdge(e.A, e.B, e.Rel); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sol.Resolve(flips); err != nil {
				b.Fatal(err)
			}
		}
		apply(true) // prime the reverse index and scratch outside the clock
		apply(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apply(true)
			apply(false)
		}
	}
	b.Run("single-flip", func(b *testing.B) {
		cycle(b, edges[len(edges)/2:len(edges)/2+1])
	})
	b.Run("batch-1pct", func(b *testing.B) {
		n := len(edges) / 100
		batch := make([]topology.Edge, 0, n)
		for i := 0; i < n; i++ {
			batch = append(batch, edges[i*len(edges)/n])
		}
		cycle(b, batch)
	})
}

// BenchmarkBloomAddHas measures the Permission List destination-list
// compression primitive (§4.1).
func BenchmarkBloomAddHas(b *testing.B) {
	f := bloom.New(1024, 0.01)
	for i := routing.NodeID(1); i <= 1024; i++ {
		f.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Has(routing.NodeID(i%1024 + 1)) {
			b.Fatal("false negative")
		}
	}
}

// --- Protocol cold-start benchmarks --------------------------------

func benchColdStart(b *testing.B, build sim.Builder) {
	g, err := topogen.BRITE(benchSimNodes, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := net.RunToConvergence(100_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartBGP measures the path-vector baseline's cold start.
func BenchmarkColdStartBGP(b *testing.B) {
	benchColdStart(b, bgp.New(bgp.Config{}))
}

// BenchmarkColdStartOSPF measures the link-state baseline's cold start.
func BenchmarkColdStartOSPF(b *testing.B) {
	benchColdStart(b, ospf.New())
}

// --- Ablations (DESIGN.md §6) ---------------------------------------

// BenchmarkAblationRootCause quantifies the contribution of root cause
// notification: identical flip workloads with the purge-everywhere
// handling on and off. The "off" variant degrades withdrawals to plain
// per-neighbor removals, re-enabling path exploration over stale links.
func BenchmarkAblationRootCause(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{
		{"rootcause-on", false},
		{"rootcause-off", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := topogen.BRITE(benchSimNodes, 2, 3)
			if err != nil {
				b.Fatal(err)
			}
			var units int64
			for i := 0; i < b.N; i++ {
				flips, err := experiments.RunFlips(experiments.FlipConfig{
					Topology: g,
					Build:    centaur.New(centaur.Config{DisableRootCause: tc.disable}),
					Flips:    benchFlips,
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range flips {
					units += f.DownUnits + f.UpUnits
				}
			}
			b.ReportMetric(float64(units)/float64(b.N)/float64(2*benchFlips), "units/event")
		})
	}
}

// BenchmarkAblationTieBreak measures the solver under each within-class
// preference model; the resulting P-graph structure per mode is the
// Tables 4-5 sensitivity discussed in EXPERIMENTS.md.
func BenchmarkAblationTieBreak(b *testing.B) {
	g := benchTopology(b)
	for _, mode := range []policy.TieBreakMode{
		policy.TieLowestVia, policy.TieHashed, policy.TieHashedPreferred, policy.TieOverride,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			var links float64
			for i := 0; i < b.N; i++ {
				sol, err := solver.SolveOpts(g, solver.Options{TieBreak: mode})
				if err != nil {
					b.Fatal(err)
				}
				st, err := experiments.ComputePGraphStats("bench", sol)
				if err != nil {
					b.Fatal(err)
				}
				links = st.AvgLinks
			}
			b.ReportMetric(links/float64(benchTopoNodes), "links/node")
		})
	}
}

// BenchmarkAblationPermissionEncoding compares the per-dest-next
// Permission List encoding against Bloom-compressed destination lists
// (§4.1 suggests Bloom filters for the destination sets): lookup cost
// and wire size per list.
func BenchmarkAblationPermissionEncoding(b *testing.B) {
	// A representative Permission List: 64 destinations over 3 next hops.
	const dests, nexts = 64, 3
	var pl pgraph.PermissionList
	for d := routing.NodeID(1); d <= dests; d++ {
		pl.Add(d, routing.NodeID(uint32(d)%nexts+1000))
	}
	b.Run("per-dest-next", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := routing.NodeID(i%dests + 1)
			if !pl.Permit(d, routing.NodeID(uint32(d)%nexts+1000)) {
				b.Fatal("missing pair")
			}
		}
		b.ReportMetric(float64(pl.NumPairs()*8), "wire-bytes")
	})
	b.Run("bloom-compressed", func(b *testing.B) {
		// One filter per next hop over its destination list.
		filters := make(map[routing.NodeID]*bloom.Filter, nexts)
		for _, e := range pl.Pairs() {
			f := filters[e.Next]
			if f == nil {
				f = bloom.New(dests/nexts+1, 0.01)
				filters[e.Next] = f
			}
			f.Add(e.Dest)
		}
		var bits uint64
		for _, f := range filters {
			bits += f.SizeBits()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d := routing.NodeID(i%dests + 1)
			if !filters[routing.NodeID(uint32(d)%nexts+1000)].Has(d) {
				b.Fatal("bloom false negative")
			}
		}
		b.ReportMetric(float64(bits/8), "wire-bytes")
	})
}

// --- Shared setup ----------------------------------------------------

func benchTopology(b *testing.B) *topology.Graph {
	b.Helper()
	g, err := topogen.CAIDALike(benchTopoNodes, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchSolution(b *testing.B) *solver.Solution {
	b.Helper()
	sol, err := solver.SolveOpts(benchTopology(b), solver.Options{TieBreak: policy.TieOverride})
	if err != nil {
		b.Fatal(err)
	}
	return sol
}

// BenchmarkMultipathExtension measures the §7 multipath compactness
// analysis at benchmark scale.
func BenchmarkMultipathExtension(b *testing.B) {
	sol := benchSolution(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultipathExtension(sol, 3, 30, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Compression.Median() <= 1 {
			b.Fatalf("median compression %.2f <= 1", res.Compression.Median())
		}
	}
}

// BenchmarkAggregationExtension measures the §6.4 de-aggregation sweep
// at benchmark scale.
func BenchmarkAggregationExtension(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AggregationExtension(experiments.AggregationConfig{
			Nodes: 60, Hosts: 5, Parts: []int{0, 4}, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRCN compares plain BGP against BGP-RCN on the flip
// workload, completing the baseline ladder (BGP, BGP-RCN, Centaur).
func BenchmarkAblationRCN(b *testing.B) {
	for _, tc := range []struct {
		name string
		rcn  bool
	}{
		{"bgp-plain", false},
		{"bgp-rcn", true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g, err := topogen.BRITE(benchSimNodes, 2, 3)
			if err != nil {
				b.Fatal(err)
			}
			var units int64
			for i := 0; i < b.N; i++ {
				flips, err := experiments.RunFlips(experiments.FlipConfig{
					Topology: g,
					Build:    bgp.New(bgp.Config{RCN: tc.rcn}),
					Flips:    benchFlips,
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, f := range flips {
					units += f.DownUnits + f.UpUnits
				}
			}
			b.ReportMetric(float64(units)/float64(b.N)/float64(2*benchFlips), "units/event")
		})
	}
}
