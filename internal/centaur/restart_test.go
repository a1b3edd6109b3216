package centaur

import (
	"slices"
	"testing"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// fullAnnouncement is what n must announce to b when a session opens:
// the P-graph Build makes of the paths n may export to b now.
func fullAnnouncement(t *testing.T, n *Node, b routing.NodeID) []pgraph.LinkInfo {
	t.Helper()
	paths := make(map[routing.NodeID]routing.Path)
	for p := range n.routes {
		if path := n.exportable(p, b, n.neighbor(b)); path != nil {
			paths[n.idx.ID(p)] = path
		}
	}
	g, err := pgraph.Build(n.self, paths)
	if err != nil {
		t.Fatal(err)
	}
	return g.LinkInfos()
}

// sentUpdate is one Update a node handed to the simulator.
type sentUpdate struct {
	from, to routing.NodeID
	u        Update
}

// recordSends makes net append to *log every Update a node sends while
// *on is set.
func recordSends(net *sim.Network, on *bool, log *[]sentUpdate) {
	net.Observe(func(ev sim.TraceEvent) {
		if u, ok := ev.Msg.(Update); ok && ev.Kind == sim.TraceSend && *on {
			*log = append(*log, sentUpdate{ev.From, ev.To, u})
		}
	})
}

func quiesce(t *testing.T, net *sim.Network) {
	t.Helper()
	if _, _, err := net.RunToConvergence(50_000_000); err != nil {
		t.Fatal(err)
	}
}

// restartChecker restores links and holds what each endpoint sends
// across the link in its LinkUp round — the session's first Update — to
// the full announcement of its current routes.
type restartChecker struct {
	t     *testing.T
	net   *sim.Network
	nodes map[routing.NodeID]*Node
	on    bool
	log   []sentUpdate
	// stale counts first Updates that differ from the view announced
	// before the outage, empty those whose exportable set emptied during
	// it: the two cases a kept view must get right.
	stale, empty int
}

func newRestartChecker(t *testing.T, g *topology.Graph) *restartChecker {
	c := &restartChecker{t: t}
	c.net, c.nodes = converge(t, g, Config{})
	recordSends(c.net, &c.on, &c.log)
	return c
}

// restore brings a—b back; before[x] is the view x announced across the
// link before it failed.
func (c *restartChecker) restore(a, b routing.NodeID, before map[routing.NodeID][]pgraph.LinkInfo) {
	t := c.t
	t.Helper()
	if !c.net.RestoreLink(a, b) {
		t.Fatalf("link %v-%v did not come back", a, b)
	}
	// The network is quiescent, so the next two events are the endpoints'
	// LinkUps; every message is still in flight after them, and each
	// endpoint's routes are what they were when it sent.
	c.on, c.log = true, c.log[:0]
	if n, _ := c.net.Run(2); n != 2 {
		t.Fatalf("ran %d events after restoring %v-%v, want the two LinkUps", n, a, b)
	}
	c.on = false
	for _, pair := range [][2]routing.NodeID{{a, b}, {b, a}} {
		from, to := pair[0], pair[1]
		want := fullAnnouncement(t, c.nodes[from], to)
		var got []sentUpdate
		for _, s := range c.log {
			if s.from == from && s.to == to {
				got = append(got, s)
			}
		}
		switch {
		case len(want) == 0 && len(got) > 0:
			t.Fatalf("%v -> %v: nothing is exportable, yet the new session opened with %v", from, to, got[0].u)
		case len(want) > 0 && len(got) != 1:
			t.Fatalf("%v -> %v: the new session opened with %d Updates, want 1", from, to, len(got))
		case len(want) > 0:
			u := got[0].u
			if len(u.Delta.Removes) > 0 || len(u.FailedLinks) > 0 ||
				!slices.EqualFunc(u.Delta.Adds, want, pgraph.LinkInfo.Equal) {
				t.Fatalf("%v -> %v: the new session opened with %v\n%v\nwant the full view\n%v",
					from, to, u, u.Delta.Adds, want)
			}
		}
		if !slices.EqualFunc(before[from], want, pgraph.LinkInfo.Equal) {
			c.stale++
			if len(want) == 0 {
				c.empty++
			}
		}
	}
	quiesce(t, c.net)
	for _, pair := range [][2]routing.NodeID{{a, b}, {b, a}} {
		from, to := pair[0], pair[1]
		if got, want := c.nodes[from].ExportedView(to), fullAnnouncement(t, c.nodes[from], to); !slices.EqualFunc(got, want, pgraph.LinkInfo.Equal) {
			t.Fatalf("%v -> %v: announced view after the restart is\n%v\nwant\n%v", from, to, got, want)
		}
	}
}

// fail takes a—b down and returns what each endpoint announced across
// it. ExportedView must read nil while the link is down, although each
// endpoint keeps its view for the next session.
func (c *restartChecker) fail(a, b routing.NodeID) map[routing.NodeID][]pgraph.LinkInfo {
	before := map[routing.NodeID][]pgraph.LinkInfo{a: c.nodes[a].ExportedView(b), b: c.nodes[b].ExportedView(a)}
	if !c.net.FailLink(a, b) {
		c.t.Fatalf("link %v-%v did not fail", a, b)
	}
	quiesce(c.t, c.net)
	for _, pair := range [][2]routing.NodeID{{a, b}, {b, a}} {
		if v := c.nodes[pair[0]].ExportedView(pair[1]); v != nil {
			c.t.Fatalf("%v's view toward %v while the link is down: %v, want nil", pair[0], pair[1], v)
		}
	}
	return before
}

// TestRestartAnnouncesFullView restores links whose outage changed the
// routes their endpoints export across them — a second link fails
// during each outage — and requires every session's first Update to be
// the full export-filtered view of the routes at that instant, although
// the view it is taken from is the one kept since the link failed. A
// view whose exportable set emptied during the outage must open the new
// session with no Update at all.
func TestRestartAnnouncesFullView(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		g, err := topogen.CAIDALike(40, 5)
		if err != nil {
			t.Fatal(err)
		}
		c := newRestartChecker(t, g)
		edges := g.Edges()
		for i := 0; i < len(edges); i += 3 {
			e, e2 := edges[i], edges[(i+len(edges)/2)%len(edges)]
			before := c.fail(e.A, e.B)
			before2 := c.fail(e2.A, e2.B)
			c.restore(e.A, e.B, before)
			c.restore(e2.A, e2.B, before2)
		}
		if c.stale == 0 {
			t.Fatal("no outage changed an exported view; the test would show nothing")
		}
		t.Logf("%d of the restarted views changed during their outage", c.stale)
	})
	t.Run("emptied", func(t *testing.T) {
		// D exports only D->D' to its provider B; with D—D' down too,
		// nothing is left to announce when D—B comes back.
		c := newRestartChecker(t, figure4())
		before := c.fail(topogen.NodeD, topogen.NodeB)
		if len(before[topogen.NodeD]) == 0 {
			t.Fatal("D announced nothing to B before the outage")
		}
		beforeDP := c.fail(topogen.NodeD, dPrime)
		c.restore(topogen.NodeD, topogen.NodeB, before)
		if c.empty == 0 {
			t.Fatal("D's view toward B did not empty during the outage")
		}
		c.restore(topogen.NodeD, dPrime, beforeDP)
	})
}

// TestFanOutSharesFailedLinks pins that a round copies its root-cause
// links once and every Update of the fan-out carries that one copy — a
// message is immutable once sent — and that the node's later rounds,
// which reuse its pending list, never write into a sent copy.
func TestFanOutSharesFailedLinks(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := converge(t, g, Config{})
	var on bool
	var log []sentUpdate
	recordSends(net, &on, &log)
	hub := g.Nodes()[0]
	for _, id := range g.Nodes() {
		if g.Degree(id) > g.Degree(hub) {
			hub = id
		}
	}
	nbs := g.Neighbors(hub)
	down := nbs[0].ID
	on = true
	net.FailLink(hub, down)
	if n, _ := net.Run(2); n != 2 {
		t.Fatalf("ran %d events after the failure, want the two LinkDowns", n)
	}
	on = false
	var sent [][]routing.Link
	for _, s := range log {
		if s.from == hub {
			sent = append(sent, s.u.FailedLinks)
		}
	}
	want := []routing.Link{{From: hub, To: down}, {From: down, To: hub}}
	if len(sent) < 2 {
		t.Fatalf("hub %v sent %d Updates after losing %v; the test would show nothing", hub, len(sent), down)
	}
	for _, fl := range sent {
		if !slices.Equal(fl, want) || &fl[0] != &sent[0][0] {
			t.Fatalf("hub %v's fan-out carries %v at %p, want %v at %p", hub, fl, fl, want, sent[0])
		}
	}
	// A second failure at the hub refills its pending list.
	quiesce(t, net)
	net.FailLink(hub, nbs[1].ID)
	quiesce(t, net)
	if !slices.Equal(sent[0], want) {
		t.Fatalf("a sent Update's failed links changed to %v, want %v", sent[0], want)
	}
}
