package pgraph_test

import (
	"slices"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// The layer benchmarks run on one fixed input — the selected path set
// of the best-connected node of a BRITE-like 160-node topology, seed 1,
// the coldstart workload's shape — so two commits compare with
// benchstat without running a figure.

// benchInput returns the topology's index, that node, its path set, and
// the destinations in ascending order.
func benchInput(b *testing.B) (*topology.Index, routing.NodeID, map[routing.NodeID]routing.Path, []routing.NodeID) {
	b.Helper()
	g, err := topogen.BRITE(160, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	sol, err := solver.Solve(g)
	if err != nil {
		b.Fatal(err)
	}
	hub := routing.None
	for _, id := range g.Nodes() {
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
	}
	paths := sol.PathSet(hub)
	dests := make([]routing.NodeID, 0, len(paths))
	for d := range paths {
		dests = append(dests, d)
	}
	slices.Sort(dests)
	return sol.Index(), hub, paths, dests
}

// BenchmarkBuild measures bulk construction (paper Table 2).
func BenchmarkBuild(b *testing.B) {
	_, hub, paths, _ := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgraph.Build(hub, paths); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildInto is BenchmarkBuild into one recycled graph, the way
// the per-node sweeps of tables 4-5 build.
func BenchmarkBuildInto(b *testing.B) {
	ix, hub, paths, dests := benchInput(b)
	list := make([]routing.Path, len(dests))
	for i, d := range dests {
		list[i] = paths[d]
	}
	g, err := pgraph.BuildInto(nil, ix, hub, list)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pgraph.BuildInto(g, ix, hub, list); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewSetFlush measures the sender side of the §4.3.2 steady
// phase: every eighth destination withdrawn and flushed, then
// re-announced and flushed, on a view holding the full path set.
func BenchmarkViewSetFlush(b *testing.B) {
	ix, hub, paths, dests := benchInput(b)
	v := pgraph.NewView(ix, hub)
	for _, d := range dests {
		v.Set(d, paths[d])
	}
	v.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < len(dests); k += 8 {
			v.Set(dests[k], nil)
		}
		down := v.Flush()
		for k := 0; k < len(dests); k += 8 {
			v.Set(dests[k], paths[dests[k]])
		}
		if up := v.Flush(); down.Empty() || up.Empty() {
			b.Fatal("a round flushed nothing")
		}
	}
}

// BenchmarkViewFlushLargeRound measures the round shape of a view built
// by Set alone: every destination announced into an empty view and
// flushed as one round, then every one withdrawn and flushed.
func BenchmarkViewFlushLargeRound(b *testing.B) {
	ix, hub, paths, dests := benchInput(b)
	v := pgraph.NewView(ix, hub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range dests {
			v.Set(d, paths[d])
		}
		up := v.Flush()
		for _, d := range dests {
			v.Set(d, nil)
		}
		if down := v.Flush(); len(up.Adds) == 0 || len(down.Removes) != len(up.Adds) {
			b.Fatalf("announced %d links, withdrew %d", len(up.Adds), len(down.Removes))
		}
	}
}

// BenchmarkGraphApply measures the receiver side: a neighbor's full
// announcement applied to an empty graph and withdrawn again.
func BenchmarkGraphApply(b *testing.B) {
	ix, hub, paths, _ := benchInput(b)
	built, err := pgraph.Build(hub, paths)
	if err != nil {
		b.Fatal(err)
	}
	announce := pgraph.Delta{Adds: built.LinkInfos()}
	withdraw := pgraph.Delta{Removes: built.Links()}
	g := pgraph.New(ix, hub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(announce)
		g.Apply(withdraw)
		if g.NumLinks() != 0 {
			b.Fatal("withdrawal left links behind")
		}
	}
}
