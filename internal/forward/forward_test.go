package forward_test

import (
	"reflect"
	"testing"
	"time"

	"centaur/internal/forward"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// hopNode is a protocol whose RIB is a fixed next-hop table, read by
// the walker through the NextHop interface.
type hopNode struct {
	next map[routing.NodeID]routing.NodeID
}

func (h *hopNode) Start(sim.Env)                      {}
func (h *hopNode) Handle(routing.NodeID, sim.Message) {}
func (h *hopNode) LinkDown(routing.NodeID)            {}
func (h *hopNode) LinkUp(routing.NodeID)              {}
func (h *hopNode) NextHop(dest routing.NodeID) routing.NodeID {
	if nh, ok := h.next[dest]; ok {
		return nh
	}
	return routing.None
}

// buildStatic wires a network of hopNodes over g; hops[src][dst] is the
// forwarding table, missing entries mean no route.
func buildStatic(t *testing.T, g *topology.Graph, hops map[routing.NodeID]map[routing.NodeID]routing.NodeID) *sim.Network {
	t.Helper()
	net, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build: func(env sim.Env) sim.Protocol {
			return &hopNode{next: hops[env.Self()]}
		},
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	return net
}

func hop(pairs ...routing.NodeID) map[routing.NodeID]routing.NodeID {
	m := make(map[routing.NodeID]routing.NodeID, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

func TestSampleFlowsDeterministicSortedDistinct(t *testing.T) {
	g, err := topogen.BRITE(30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := forward.SampleFlows(g, 12, 42)
	b := forward.SampleFlows(g, 12, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (graph, n, seed) sampled different flows:\n%v\n%v", a, b)
	}
	if len(a) != 12 {
		t.Fatalf("sampled %d flows, want 12", len(a))
	}
	seen := make(map[forward.Flow]bool)
	for i, f := range a {
		if f.Src == f.Dst {
			t.Fatalf("flow %v has src == dst", f)
		}
		if seen[f] {
			t.Fatalf("duplicate flow %v", f)
		}
		seen[f] = true
		if i > 0 && (a[i-1].Src > f.Src || (a[i-1].Src == f.Src && a[i-1].Dst > f.Dst)) {
			t.Fatalf("flows not sorted at %d: %v", i, a)
		}
	}
	if c := forward.SampleFlows(g, 12, 43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical flow sets")
	}
}

func TestWalkFlowClassifications(t *testing.T) {
	// 1—2—3 chain plus a 2—4 spur; relationships make 1→2 downhill
	// (2 is 1's customer) and 2→3 uphill (3 is 2's provider), so the
	// route 1→2→3 crosses a Gao–Rexford valley.
	g := topology.NewGraph(4)
	for _, e := range []struct {
		a, b routing.NodeID
		rel  topology.Relationship
	}{
		{1, 2, topology.RelCustomer},
		{2, 3, topology.RelProvider},
		{2, 4, topology.RelCustomer},
	} {
		if err := g.AddEdge(e.a, e.b, e.rel); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("delivered", func(t *testing.T) {
		net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
			2: hop(4, 4),
			1: hop(4, 2),
		})
		path, o := forward.WalkFlow(net, forward.Flow{Src: 2, Dst: 4})
		if o != forward.Delivered || !path.Equal(routing.Path{2, 4}) {
			t.Fatalf("got %v %v, want delivered via 2→4", o, path)
		}
	})
	t.Run("valley-delivered", func(t *testing.T) {
		net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
			1: hop(3, 2),
			2: hop(3, 3),
		})
		path, o := forward.WalkFlow(net, forward.Flow{Src: 1, Dst: 3})
		if o != forward.ValleyDelivered || !path.Equal(routing.Path{1, 2, 3}) {
			t.Fatalf("got %v %v, want valley-delivered via 1→2→3", o, path)
		}
	})
	t.Run("blackholed-no-route", func(t *testing.T) {
		net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
			1: hop(4, 2), // node 2 has no entry for 4
		})
		path, o := forward.WalkFlow(net, forward.Flow{Src: 1, Dst: 4})
		if o != forward.Blackholed || !path.Equal(routing.Path{1, 2}) {
			t.Fatalf("got %v %v, want blackholed at 2", o, path)
		}
	})
	t.Run("blackholed-dead-link", func(t *testing.T) {
		net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
			1: hop(4, 2),
			2: hop(4, 4),
		})
		net.FailLink(2, 4)
		net.Run(0)
		_, o := forward.WalkFlow(net, forward.Flow{Src: 1, Dst: 4})
		if o != forward.Blackholed {
			t.Fatalf("got %v, want blackholed: RIB points across a dead link", o)
		}
	})
	t.Run("blackholed-crashed-node", func(t *testing.T) {
		net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
			1: hop(4, 2),
			2: hop(4, 4),
		})
		net.CrashNode(4)
		net.Run(0)
		_, o := forward.WalkFlow(net, forward.Flow{Src: 1, Dst: 4})
		if o != forward.Blackholed {
			t.Fatalf("got %v, want blackholed: destination is down", o)
		}
	})
	t.Run("looping", func(t *testing.T) {
		net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
			1: hop(4, 2),
			2: hop(4, 1), // 1 and 2 point at each other
		})
		path, o := forward.WalkFlow(net, forward.Flow{Src: 1, Dst: 4})
		if o != forward.Looping {
			t.Fatalf("got %v, want looping", o)
		}
		// The hop budget is the topology's node count: the walk takes
		// NumNodes+1 hops before giving up, bouncing between 1 and 2.
		want := routing.Path{1, 2, 1, 2, 1, 2}
		if len(want) != g.NumNodes()+2 || !path.Equal(want) {
			t.Fatalf("loop walk traversed %v, want %v", path, want)
		}
	})
}

// TestTrackerIntegratesOutcomeTime pins the exact piecewise-constant
// integration: a link failure flips a flow to blackholed for exactly
// 20 ms, then the restore flips it back.
func TestTrackerIntegratesOutcomeTime(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	net := buildStatic(t, g, map[routing.NodeID]map[routing.NodeID]routing.NodeID{
		1: hop(3, 2),
		2: hop(3, 3),
	})
	tr := forward.NewTracker(net, forward.Config{
		Flows:      []forward.Flow{{Src: 1, Dst: 3}},
		PacketRate: 500,
	})
	tr.Install()
	// The mutation instants schedule later work (the sentinel below), so
	// each one's end is in the event stream and the tracker evaluates
	// exactly when forwarding changes.
	net.Schedule(10*time.Millisecond, func() { net.FailLink(2, 3) })
	net.Schedule(30*time.Millisecond, func() { net.RestoreLink(2, 3) })
	net.Schedule(100*time.Millisecond, func() {}) // sentinel: closes the run at 100 ms
	net.Run(0)

	imp := tr.Window(net.Now())
	const eps = 1e-9
	// First evaluation happens at the 10 ms failure (nothing dirtied the
	// network before), so the window integrates from there: 20 ms
	// blackholed, then 70 ms delivered after the restore.
	if diff := imp.BlackholeSec - 0.020; diff > eps || diff < -eps {
		t.Fatalf("BlackholeSec = %v, want exactly 0.020", imp.BlackholeSec)
	}
	if diff := imp.DeliveredSec - 0.070; diff > eps || diff < -eps {
		t.Fatalf("DeliveredSec = %v, want exactly 0.070", imp.DeliveredSec)
	}
	if imp.BlackholePackets != imp.BlackholeSec*500 {
		t.Fatalf("BlackholePackets = %v, want BlackholeSec × rate", imp.BlackholePackets)
	}
	if imp.Transitions != 1 || imp.Evals != 2 {
		t.Fatalf("Transitions=%d Evals=%d, want 1 transition across 2 evals", imp.Transitions, imp.Evals)
	}
	if imp.FinalBlackholed != 0 || imp.FinalLooping != 0 || imp.FinalValley != 0 {
		t.Fatalf("final state %+v, want all delivered", imp)
	}
	if got := tr.Outcomes(); len(got) != 1 || got[0] != forward.Delivered {
		t.Fatalf("Outcomes() = %v, want [delivered]", got)
	}

	// A second window starts clean but keeps the classification cursor:
	// failing the link again and never restoring leaves the flow
	// blackholed at the close.
	net.Schedule(10*time.Millisecond, func() { net.FailLink(2, 3) })
	net.Schedule(50*time.Millisecond, func() {})
	net.Run(0)
	imp2 := tr.Window(net.Now())
	if diff := imp2.BlackholeSec - 0.040; diff > eps || diff < -eps {
		t.Fatalf("second window BlackholeSec = %v, want exactly 0.040", imp2.BlackholeSec)
	}
	if diff := imp2.DeliveredSec - 0.010; diff > eps || diff < -eps {
		t.Fatalf("second window DeliveredSec = %v, want exactly 0.010", imp2.DeliveredSec)
	}
	if imp2.FinalBlackholed != 1 {
		t.Fatalf("second window FinalBlackholed = %d, want 1", imp2.FinalBlackholed)
	}
}
