package solver

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"centaur/internal/policy"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// assertShardedMatchesDense holds a sharded solution to the dense
// oracle across every public answer surface: the positional tables,
// DestsVia for every adjacent pair, and Equal in both mixed-layout
// directions.
func assertShardedMatchesDense(t *testing.T, ctx string, sh, dn *Solution, g *topology.Graph) {
	t.Helper()
	assertTablesEqual(t, ctx, sh, dn)
	for _, from := range g.Nodes() {
		for _, nb := range g.Neighbors(from) {
			got := sh.DestsVia(from, nb.ID)
			want := dn.DestsVia(from, nb.ID)
			if len(got) != len(want) {
				t.Fatalf("%s: DestsVia(%v,%v) = %v, dense oracle %v", ctx, from, nb.ID, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: DestsVia(%v,%v) = %v, dense oracle %v", ctx, from, nb.ID, got, want)
				}
			}
		}
	}
	if !sh.Equal(dn) || !dn.Equal(sh) {
		t.Fatalf("%s: Equal disagrees across layouts", ctx)
	}
}

// TestResolveShardedMatchesDense is the sparse-vs-dense property test:
// across randomized topologies and flip sequences (removals, restores,
// mixed batches including a removal plus a brand-new link in one
// Resolve — the case that forces a re-encode after pass 1 — and
// relationship changes), a LayoutSharded solution with a deliberately
// tiny shard size must answer Next/Class/Dist/DestsVia/Equal
// identically to the dense oracle, which is itself checked against cold
// solves. Runs under -race in CI via the TestResolve gate.
func TestResolveShardedMatchesDense(t *testing.T) {
	for _, mode := range []policy.TieBreakMode{policy.TieLowestVia, policy.TieHashed, policy.TieOverride} {
		mode := mode
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			g, err := topogen.CAIDALike(130, int64(mode)+23)
			if err != nil {
				t.Fatal(err)
			}
			gd := g.Clone()
			// destsPerShard 7 gives ~19 shards at 130 nodes plus a partial
			// final shard — the boundary arithmetic is on trial too.
			sh, err := SolveOpts(g, Options{TieBreak: mode, layout: LayoutSharded, destsPerShard: 7})
			if err != nil {
				t.Fatal(err)
			}
			if sh.Layout() != LayoutSharded {
				t.Fatalf("Layout() = %v, want sharded", sh.Layout())
			}
			dn, err := SolveOpts(gd, Options{TieBreak: mode, layout: LayoutDense})
			if err != nil {
				t.Fatal(err)
			}
			assertShardedMatchesDense(t, "cold", sh, dn, g)
			if got, want := sh.MemoryBytes(), dn.MemoryBytes(); got >= want {
				t.Fatalf("sharded table (%d B) not smaller than dense (%d B)", got, want)
			}

			rng := rand.New(rand.NewSource(int64(mode) + 97))
			nodes := g.Nodes()
			var removed []topology.Edge

			apply := func(ctx string, flips []Flip) {
				t.Helper()
				if _, err := sh.Resolve(flips); err != nil {
					t.Fatalf("%s: sharded Resolve: %v", ctx, err)
				}
				if _, err := dn.Resolve(flips); err != nil {
					t.Fatalf("%s: dense Resolve: %v", ctx, err)
				}
				assertShardedMatchesDense(t, ctx, sh, dn, g)
			}
			mutate := func(f func(*topology.Graph) error) {
				t.Helper()
				if err := f(g); err != nil {
					t.Fatal(err)
				}
				if err := f(gd); err != nil {
					t.Fatal(err)
				}
			}

			for step := 0; step < 14; step++ {
				switch step % 5 {
				case 0: // single removal
					e := g.Edges()[rng.Intn(g.NumEdges())]
					mutate(func(gr *topology.Graph) error {
						gr.RemoveEdge(e.A, e.B)
						return nil
					})
					removed = append(removed, e)
					apply(fmt.Sprintf("step %d remove", step), []Flip{{A: e.A, B: e.B}})
				case 1: // single restore
					if len(removed) == 0 {
						continue
					}
					i := rng.Intn(len(removed))
					e := removed[i]
					removed = append(removed[:i], removed[i+1:]...)
					mutate(func(gr *topology.Graph) error { return gr.AddEdge(e.A, e.B, e.Rel) })
					apply(fmt.Sprintf("step %d restore", step), []Flip{{A: e.A, B: e.B}})
				case 2: // removal + brand-new link in ONE batch (pass 1 must
					// clean the dead slot's entries before pass 2 re-encodes)
					ctx := fmt.Sprintf("step %d mixed", step)
					e := g.Edges()[rng.Intn(g.NumEdges())]
					mutate(func(gr *topology.Graph) error {
						gr.RemoveEdge(e.A, e.B)
						return nil
					})
					removed = append(removed, e)
					flips := []Flip{{A: e.A, B: e.B}}
					for tries := 0; tries < 100; tries++ {
						a := nodes[rng.Intn(len(nodes))]
						b := nodes[rng.Intn(len(nodes))]
						if a == b || g.HasEdge(a, b) || (a == e.A && b == e.B) || (a == e.B && b == e.A) {
							continue
						}
						mutate(func(gr *topology.Graph) error { return gr.AddEdge(a, b, topology.RelPeer) })
						flips = append(flips, Flip{A: a, B: b})
						defer func() { // drift back toward the generated shape
							mutate(func(gr *topology.Graph) error {
								gr.RemoveEdge(a, b)
								return nil
							})
							apply(ctx+" teardown", []Flip{{A: a, B: b}})
						}()
						break
					}
					apply(ctx, flips)
				case 3: // relationship change on a live link
					ctx := fmt.Sprintf("step %d relchange", step)
					e := g.Edges()[rng.Intn(g.NumEdges())]
					if e.Rel == topology.RelPeer {
						continue
					}
					mutate(func(gr *topology.Graph) error {
						gr.RemoveEdge(e.A, e.B)
						return gr.AddEdge(e.A, e.B, topology.RelPeer)
					})
					apply(ctx, []Flip{{A: e.A, B: e.B}})
					mutate(func(gr *topology.Graph) error {
						gr.RemoveEdge(e.A, e.B)
						return gr.AddEdge(e.A, e.B, e.Rel)
					})
					apply(ctx+" back", []Flip{{A: e.A, B: e.B}})
				case 4: // multi-removal batch
					ctx := fmt.Sprintf("step %d batch", step)
					var flips []Flip
					for k := 0; k < 2; k++ {
						e := g.Edges()[rng.Intn(g.NumEdges())]
						mutate(func(gr *topology.Graph) error {
							gr.RemoveEdge(e.A, e.B)
							return nil
						})
						removed = append(removed, e)
						flips = append(flips, Flip{A: e.A, B: e.B})
					}
					apply(ctx, flips)
				}
			}

			// Restore everything and confirm both layouts agree with a
			// cold sharded solve of the pristine graph.
			var flips []Flip
			for _, e := range removed {
				mutate(func(gr *topology.Graph) error { return gr.AddEdge(e.A, e.B, e.Rel) })
				flips = append(flips, Flip{A: e.A, B: e.B})
			}
			apply("restore all", flips)
			cold, err := SolveOpts(g, Options{TieBreak: mode, layout: LayoutSharded, destsPerShard: 7})
			if err != nil {
				t.Fatal(err)
			}
			assertTablesEqual(t, "final cold", sh, cold)
		})
	}
}

// TestResolveShardedCloneOn: cloning a sharded solution (including one
// carrying dead slots) yields an independent copy that resolves its own
// flips; the fast same-layout Equal path must see clone and original as
// equal until they diverge.
func TestResolveShardedCloneOn(t *testing.T) {
	g, err := topogen.CAIDALike(90, 7)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SolveOpts(g, Options{TieBreak: policy.TieHashed, layout: LayoutSharded, destsPerShard: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Give the original a dead slot so the clone inherits it.
	e0 := g.Edges()[0]
	g.RemoveEdge(e0.A, e0.B)
	if _, err := s.Resolve([]Flip{{A: e0.A, B: e0.B}}); err != nil {
		t.Fatal(err)
	}
	gc := g.Clone()
	c, err := s.CloneOn(gc)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(s) || !s.Equal(c) {
		t.Fatal("fresh clone not Equal to original")
	}
	e := gc.Edges()[1]
	gc.RemoveEdge(e.A, e.B)
	if _, err := c.Resolve([]Flip{{A: e.A, B: e.B}}); err != nil {
		t.Fatal(err)
	}
	if c.Equal(s) {
		t.Fatal("clone still Equal to original after diverging")
	}
	cold, err := SolveOpts(gc, Options{TieBreak: policy.TieHashed, layout: LayoutSharded})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "clone flip", c, cold)
	coldOrig, err := SolveOpts(g, Options{TieBreak: policy.TieHashed, layout: LayoutDense})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "original untouched", s, coldOrig)
}

// TestResolveShardedDistEscape drives hop distances past the 6-bit
// in-row field on a long chain (dist up to n-1 ≫ 62), so the overflow
// map carries them — then shortens and re-lengthens paths incrementally
// to check escapes appear and disappear in place.
func TestResolveShardedDistEscape(t *testing.T) {
	const n = 90
	g, err := topogen.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	gd := g.Clone()
	sh, err := SolveOpts(g, Options{layout: LayoutSharded, destsPerShard: 8})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := SolveOpts(gd, Options{layout: LayoutDense})
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "cold chain", sh, dn)
	maxDist := 0
	for _, a := range g.Nodes() {
		for _, b := range g.Nodes() {
			if d := sh.Dist(a, b); d > maxDist {
				maxDist = d
			}
		}
	}
	if maxDist <= distEscape {
		t.Fatalf("chain max dist %d does not exercise the escape (> %d needed)", maxDist, distEscape)
	}
	// Cut the chain in the middle (long routes vanish), then splice it
	// back (escapes return).
	edges := g.Edges()
	mid := edges[len(edges)/2]
	for _, gr := range []*topology.Graph{g, gd} {
		gr.RemoveEdge(mid.A, mid.B)
	}
	if _, err := sh.Resolve([]Flip{{A: mid.A, B: mid.B}}); err != nil {
		t.Fatal(err)
	}
	if _, err := dn.Resolve([]Flip{{A: mid.A, B: mid.B}}); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "cut chain", sh, dn)
	for _, gr := range []*topology.Graph{g, gd} {
		if err := gr.AddEdge(mid.A, mid.B, mid.Rel); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sh.Resolve([]Flip{{A: mid.A, B: mid.B}}); err != nil {
		t.Fatal(err)
	}
	if _, err := dn.Resolve([]Flip{{A: mid.A, B: mid.B}}); err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "spliced chain", sh, dn)
}

// TestSolveShardsStream checks the streaming-shard mode: windows arrive
// in ascending order covering every destination exactly once, and
// StreamEqual (which compares every window's answers) accepts matching
// solutions of either layout while rejecting a stale one.
func TestSolveShardsStream(t *testing.T) {
	g, err := topogen.CAIDALike(110, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TieBreak: policy.TieHashed, destsPerShard: 13}
	full, err := SolveOpts(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	nextLo := 0
	err = SolveShards(g, opts, func(w *ShardView) error {
		if w.Lo() != nextLo {
			t.Fatalf("window starts at %d, want %d", w.Lo(), nextLo)
		}
		nextLo = w.Hi()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nextLo != full.Index().Len() {
		t.Fatalf("windows covered %d destinations, want %d", nextLo, full.Index().Len())
	}

	for _, layout := range []Layout{LayoutDense, LayoutSharded} {
		s, err := SolveOpts(g, Options{TieBreak: policy.TieHashed, layout: layout, destsPerShard: 13})
		if err != nil {
			t.Fatal(err)
		}
		eq, err := StreamEqual(g, opts, s)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("StreamEqual rejected a matching %v solution", layout)
		}
	}
	// A solution left behind by a topology change must be rejected.
	e := g.Edges()[0]
	g.RemoveEdge(e.A, e.B)
	eq, err := StreamEqual(g, opts, full)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("StreamEqual accepted a stale solution")
	}
}

// TestLayoutAuto pins the auto-layout cutover rule.
func TestLayoutAuto(t *testing.T) {
	if (Options{}).sharded(autoShardNodes - 1) {
		t.Fatal("auto layout sharded below the threshold")
	}
	if !(Options{}).sharded(autoShardNodes) {
		t.Fatal("auto layout dense at the threshold")
	}
	if (Options{layout: LayoutDense}).sharded(1 << 20) {
		t.Fatal("explicit dense overridden")
	}
	if !(Options{layout: LayoutSharded}).sharded(2) {
		t.Fatal("explicit sharded overridden")
	}
	g, err := topogen.CAIDALike(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SolveOpts(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Layout() != LayoutDense {
		t.Fatalf("small auto solve used %v", s.Layout())
	}
}

// TestShardedMemoryGate is the CI memory gate: a sharded 4k-node solve
// must allocate strictly less than the dense baseline (testing.B with
// ReportAllocs, per the ISSUE). The solves take several seconds, so the
// gate only runs when SOLVER_MEM_GATE=1 (CI sets it in a dedicated
// step); the equivalence itself is covered at small scale by
// TestResolveShardedMatchesDense on every run.
func TestShardedMemoryGate(t *testing.T) {
	if os.Getenv("SOLVER_MEM_GATE") == "" {
		t.Skip("set SOLVER_MEM_GATE=1 to run the 4k-node allocation gate")
	}
	g, err := topogen.CAIDALike(4000, 8)
	if err != nil {
		t.Fatal(err)
	}
	bench := func(layout Layout) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SolveOpts(g, Options{TieBreak: policy.TieHashed, layout: layout}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	dense := bench(LayoutDense)
	sharded := bench(LayoutSharded)
	db, sb := dense.AllocedBytesPerOp(), sharded.AllocedBytesPerOp()
	t.Logf("4k solve allocations: dense %d B/op, sharded %d B/op (%.1fx)", db, sb, float64(db)/float64(sb))
	if sb >= db {
		t.Fatalf("sharded 4k solve allocated %d B/op, dense baseline %d B/op — the sharded layout must allocate less", sb, db)
	}
}

// BenchmarkSolveColdSharded measures a from-scratch solve of the 4,000-node
// CAIDA-like graph of the root package's BenchmarkSolveCold with the packed
// sharded layout forced, which graphs below autoShardNodes never reach on
// their own.
func BenchmarkSolveColdSharded(b *testing.B) {
	g, err := topogen.CAIDALike(4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveOpts(g, Options{TieBreak: policy.TieHashed, layout: LayoutSharded}); err != nil {
			b.Fatal(err)
		}
	}
}
