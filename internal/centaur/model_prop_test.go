package centaur

import (
	"slices"
	"testing"
	"time"

	"centaur/internal/pgraph"
	"centaur/internal/prototest"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// sameUpdate compares two sent updates field by field.
func sameUpdate(a, b sim.Message) bool {
	x, y := a.(Update), b.(Update)
	return slices.Equal(x.Delta.Removes, y.Delta.Removes) &&
		slices.Equal(x.FailedLinks, y.FailedLinks) &&
		slices.EqualFunc(x.Delta.Adds, y.Delta.Adds, pgraph.LinkInfo.Equal)
}

// TestNodeMatchesModel runs flap sequences through networks of
// lockstep pairs (the real Node and the reference model fed the same
// events, every Update and route change compared per event): cold
// start, single and overlapping failures, restores inside and outside
// the mask TTL, node crashes and restarts, and a topology with a sparse
// node ID. Each incremental case pairs the real node with the model's
// incremental mode; its full-model twin pairs the real node with the
// model's full recompute, so the node's affected-destination rounds are
// checked to behave exactly like re-deriving every destination on every
// event. After every quiescence each node's LocalGraph — built on demand
// from the route table — must equal the local view the model still
// maintains incrementally, and derive every selected route, and each
// node's ExportedView toward every neighbor — a share of one class view
// — must equal the model's per-neighbor view. Every run but the sparse
// one must exercise the three ways a neighbor's share departs from its
// class view: a node its excluded paths share with the rest of the
// class view, a path containing the neighbor beyond its first hop, and
// a restarted session announced from a class view that already holds
// its links.
func TestNodeMatchesModel(t *testing.T) {
	brite, err := topogen.BRITE(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	caida, err := topogen.CAIDALike(60, 9) // has sibling adjacencies
	if err != nil {
		t.Fatal(err)
	}
	sparse := prototest.SparseGraph(t)
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  Config
		full bool // pair with the model's full recompute
	}{
		{"brite/incremental", brite, Config{maskTTL: 30 * time.Millisecond}, false},
		{"brite/full-model", brite, Config{maskTTL: 30 * time.Millisecond}, true},
		{"caida/incremental", caida, Config{Policy: overridePolicy()}, false},
		{"caida/full-model", caida, Config{Policy: overridePolicy()}, true},
		{"caida/no-root-cause", caida, Config{DisableRootCause: true}, false},
		{"caida-no-root-cause/full-model", caida, Config{DisableRootCause: true}, true},
		{"sparse/incremental", sparse, Config{maskTTL: 30 * time.Millisecond}, false},
		{"sparse/full-model", sparse, Config{maskTTL: 30 * time.Millisecond}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compared := 0
			net, err := sim.NewNetwork(sim.Config{
				Topology: tc.g,
				Build: func(env sim.Env) sim.Protocol {
					model := func(env sim.Env) sim.Protocol { return newRefNode(tc.cfg, tc.full, env) }
					return prototest.NewPair(t, env, New(tc.cfg), model, sameUpdate, &compared)
				},
				DelaySeed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			graphs := 0
			// The three ways a neighbor's view departs from its class
			// view's, each of which the run must exercise.
			var shared, deep, kept int
			net.Observe(func(ev sim.TraceEvent) {
				if ev.Kind != sim.TraceLinkUp {
					return
				}
				for _, e := range [][2]routing.NodeID{{ev.From, ev.To}, {ev.To, ev.From}} {
					if p, ok := net.Node(e[0]).(*prototest.Pair); ok {
						if _, _, k := p.Real().(*Node).classCases(e[1]); k {
							kept++
						}
					}
				}
			})
			settled := func() {
				for _, id := range tc.g.Nodes() {
					p := net.Node(id).(*prototest.Pair)
					node, model := p.Real().(*Node), p.Model().(*refNode)
					for _, b := range node.nbrList {
						var want []pgraph.LinkInfo
						if v, ok := model.views[b]; ok && model.nbGraph[b] != nil {
							want = v.Graph().LinkInfos()
						}
						if got := node.ExportedView(b); !slices.EqualFunc(got, want, pgraph.LinkInfo.Equal) {
							t.Fatalf("node %v: ExportedView(%v) is\n%v\nmodel's view is\n%v", id, b, got, want)
						}
						s, d, _ := node.classCases(b)
						if s {
							shared++
						}
						if d {
							deep++
						}
					}
					lg := node.LocalGraph()
					if want := model.localGraph(); lg.String() != want.String() {
						t.Fatalf("node %v: LocalGraph is\n%v\nmodel's local view is\n%v", id, lg, want)
					}
					for d, want := range node.Routes() {
						if got, ok := lg.DerivePath(d); !ok || !got.Equal(want) {
							t.Fatalf("node %v: LocalGraph derives %v for %v, selected %v", id, got, d, want)
						}
					}
					graphs++
				}
			}
			prototest.Flaps{MaxDown: 3, CrashEvery: 5, Settled: settled}.Run(t, net, tc.g)
			if compared == 0 || graphs == 0 {
				t.Fatalf("compared %d emissions and %d local graphs", compared, graphs)
			}
			t.Logf("settled views with a shared node %d, with a deep member %d; restarts from a kept class view %d", shared, deep, kept)
			if tc.g != sparse && (shared == 0 || deep == 0 || kept == 0) {
				t.Fatal("the run missed one of the ways a neighbor's view departs from its class view's")
			}
		})
	}
}
