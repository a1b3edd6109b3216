package ospf

import (
	"slices"
	"testing"

	"centaur/internal/prototest"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// sameFlood compares two sent floods field by field.
func sameFlood(a, b sim.Message) bool {
	x, y := a.(Flood).LSA, b.(Flood).LSA
	return x.Origin == y.Origin && x.Seq == y.Seq && slices.Equal(x.Neighbors, y.Neighbors)
}

// TestNodeMatchesModel runs flap sequences, node crashes and restarts
// through networks of lockstep pairs (the real Node and the map-backed
// reference model fed the same events; every Send and RouteChanged
// compared per event), and after every round compares the next hop of
// every node toward every destination and the LSDB sizes: the Figure
// 6–8 default, DatabaseExchange (the crash-recovery configuration), and
// a topology with a sparse node ID.
func TestNodeMatchesModel(t *testing.T) {
	brite, err := topogen.BRITE(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	caida, err := topogen.CAIDALike(60, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  Config
	}{
		{"brite/default", brite, Config{}},
		{"caida/default", caida, Config{}},
		{"brite/dbx+crash", brite, Config{DatabaseExchange: true}},
		{"caida/dbx+crash", caida, Config{DatabaseExchange: true}},
		{"sparse/dbx+crash", prototest.SparseGraph(t), Config{DatabaseExchange: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compared := 0
			net, err := sim.NewNetwork(sim.Config{
				Topology: tc.g,
				Build: func(env sim.Env) sim.Protocol {
					model := func(env sim.Env) sim.Protocol { return newRefNode(tc.cfg, env) }
					return prototest.NewPair(t, env, NewWithConfig(tc.cfg), model, sameFlood, &compared)
				},
				DelaySeed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes := tc.g.Nodes()
			// After every quiescence: same LSDB size, same next hops.
			settled := func() {
				for _, id := range nodes {
					p := net.Node(id).(*prototest.Pair)
					got, want := p.Real().(*Node), p.Model().(*refNode)
					if got.LSDBSize() != len(want.lsdb) {
						t.Fatalf("node %v: %d LSAs, model has %d", id, got.LSDBSize(), len(want.lsdb))
					}
					for _, d := range append(nodes, 7, 69999, 70001) { // and some IDs nobody has
						if g, w := got.NextHop(d), want.NextHop(d); g != w {
							t.Fatalf("node %v: next hop to %v is %v, model has %v", id, d, g, w)
						}
					}
				}
			}
			// Without database exchange a restarted router never
			// recovers its LSDB (see the package comment): no crashes then.
			flaps := prototest.Flaps{MaxDown: 3, Settled: settled}
			if tc.cfg.DatabaseExchange {
				flaps.CrashEvery = 3
			}
			flaps.Run(t, net, tc.g)
			if compared == 0 {
				t.Fatal("nothing was compared")
			}
		})
	}
}
