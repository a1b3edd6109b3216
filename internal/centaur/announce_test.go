package centaur

import (
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// flipSweep cold-starts a Centaur network with hashed tie-breaks on a
// BRITE-like graph of the given size (seed 7, delay seed 7), with
// observe subscribed to its event stream from the first event, then
// fails and restores every link, quiescing after each step.
func flipSweep(t *testing.T, nodes int, observe func(net *sim.Network, ev sim.TraceEvent)) {
	t.Helper()
	g, err := topogen.BRITE(nodes, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sim.NewNetwork(sim.Config{
		Topology:  g,
		Build:     New(Config{Policy: policy.GaoRexford{TieBreak: policy.TieHashed}}),
		DelaySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Observe(func(ev sim.TraceEvent) { observe(net, ev) })
	quiesce := func() {
		t.Helper()
		if _, _, err := net.RunToConvergence(50_000_000); err != nil {
			t.Fatal(err)
		}
	}
	quiesce()
	for _, e := range g.Edges() {
		net.FailLink(e.A, e.B)
		quiesce()
		net.RestoreLink(e.A, e.B)
		quiesce()
	}
}

// TestInstalledRoutesWereAnnounced checks, at every route change of a
// cold start and of a sweep that fails and restores every link, that the
// new next hop announces the destination: a neighbor's P-graph offers a
// route to a node only when it marks the node as a destination (its view
// marks exactly the destinations it has a path for). A node that is only
// the head of a transit link in that graph is no offer, however its
// backtrace would come out, so installing it would make the route depend
// on which derivations happened to be cached.
func TestInstalledRoutesWereAnnounced(t *testing.T) {
	unannounced := 0
	flipSweep(t, 120, func(net *sim.Network, ev sim.TraceEvent) {
		if ev.Kind != sim.TraceRouteChange || !ev.HasVia || ev.NewNext == routing.None {
			return
		}
		node := net.Node(ev.From).(*Node)
		if nbg := node.NeighborGraph(ev.NewNext); nbg == nil || !nbg.IsDest(ev.To) {
			if unannounced++; unannounced <= 5 {
				t.Errorf("t=%v: node %v installed a route to %v via %v, which does not announce it",
					ev.At, ev.From, ev.To, ev.NewNext)
			}
		}
	})
	if unannounced > 0 {
		t.Fatalf("%d route changes installed an unannounced destination", unannounced)
	}
}

// TestDeriveCacheHitsMatchFreshDerivation holds the derive caches to
// their definition over a cold start and a sweep that fails and
// restores every link: whenever a message reaches a node, every answer
// its caches would serve — for each destination each neighbor's graph
// marks, looked up by that destination's slot — equals a fresh
// derivation from that graph under the node's current root-cause mask.
// Slots are reused as nodes leave and join a graph, so this also checks
// that no slot answers with what was cached for its previous node.
func TestDeriveCacheHitsMatchFreshDerivation(t *testing.T) {
	hits := 0
	check := func(n *Node) {
		for i := range n.nbrs {
			nb := &n.nbrs[i]
			if nb.graph == nil {
				continue
			}
			for _, dest := range nb.graph.Dests() {
				s, _ := nb.graph.DestSlot(dest)
				got, gotOK, hit := nb.cached(s, dest)
				if !hit {
					continue
				}
				hits++
				want, wantOK := nb.graph.DerivePathWith(dest, n.isFailed)
				if gotOK != wantOK || !got.Equal(want) {
					t.Fatalf("node %v, neighbor %v, destination %v at slot %d: cached %v (%v), derived %v (%v)",
						n.self, nb.graph.Root(), dest, s, got, gotOK, want, wantOK)
				}
			}
		}
	}
	flipSweep(t, 70, func(net *sim.Network, ev sim.TraceEvent) {
		if ev.Kind == sim.TraceDeliver {
			check(net.Node(ev.To).(*Node))
		}
	})
	if hits == 0 {
		t.Fatal("no cached answer was checked")
	}
	t.Logf("%d cached answers checked", hits)
}

// TestDeriveCacheChecksSlotTenant pins the derive cache's tenancy
// check: a destination that takes over a released slot of a neighbor
// graph is derived afresh instead of being answered with what was
// cached for the slot's previous node, whether that was a path or a
// failure.
func TestDeriveCacheChecksSlotTenant(t *testing.T) {
	ix := topology.IndexOf([]routing.NodeID{1, 2, 3, 4, 5, 6})
	n := &Node{idx: ix, self: 6}
	g := pgraph.New(ix, 1)
	g.MarkDest(1)
	nb := &neighbor{graph: g}
	announce := func(links ...routing.Link) {
		d := pgraph.Delta{}
		for _, l := range links {
			d.Adds = append(d.Adds, pgraph.LinkInfo{Link: l, ToIsDest: true})
		}
		g.Apply(d)
	}
	derive := func(dest routing.NodeID) routing.Path {
		p, _ := n.derive(nb, ix.Pos(dest), nil)
		return p
	}

	// 3 is cached with a path; it leaves and 4 takes its slot.
	announce(routing.Link{From: 1, To: 2}, routing.Link{From: 2, To: 3})
	if p := derive(3); !p.Equal(routing.Path{1, 2, 3}) {
		t.Fatalf("derive(3) = %v", p)
	}
	s3, _ := g.DestSlot(3)
	g.RemoveLink(routing.Link{From: 2, To: 3})
	announce(routing.Link{From: 1, To: 4})
	if s4, _ := g.DestSlot(4); s4 != s3 {
		t.Fatalf("4 took slot %d, not 3's slot %d; the test shows nothing", s4, s3)
	}
	if p := derive(4); !p.Equal(routing.Path{1, 4}) {
		t.Fatalf("derive(4) = %v, want <1,4>; the slot answered for its previous node", p)
	}

	// 5 is cached as a failure (no in-link, only a child); it leaves and
	// 3 takes its slot.
	g.Apply(pgraph.Delta{Adds: []pgraph.LinkInfo{
		{Link: routing.Link{From: 1, To: 5}, ToIsDest: true},
		{Link: routing.Link{From: 5, To: 2}, ToIsDest: true},
	}})
	g.RemoveLink(routing.Link{From: 1, To: 5})
	if p, ok := n.derive(nb, ix.Pos(5), nil); ok {
		t.Fatalf("derive(5) = %v for a node with no in-link", p)
	}
	s5, _ := g.DestSlot(5)
	g.RemoveLink(routing.Link{From: 5, To: 2})
	announce(routing.Link{From: 2, To: 3})
	if s, _ := g.DestSlot(3); s != s5 {
		t.Fatalf("3 took slot %d, not 5's slot %d; the test shows nothing", s, s5)
	}
	if p := derive(3); !p.Equal(routing.Path{1, 2, 3}) {
		t.Fatalf("derive(3) = %v, want <1,2,3>; the slot answered for its previous node", p)
	}
}
