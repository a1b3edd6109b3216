package sim

import (
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// pingMsg is a trivial test message.
type pingMsg struct{ hops int }

func (pingMsg) Kind() string { return "test.ping" }
func (pingMsg) Units() int   { return 1 }

// echoNode forwards a ping to all neighbors until its hop budget runs
// out; used to exercise delivery, delays, and accounting.
type echoNode struct {
	env      Env
	received int
	downs    int
	ups      int
}

func (e *echoNode) Start(env Env) {
	e.env = env
}

func (e *echoNode) Handle(_ routing.NodeID, msg Message) {
	e.received++
	p, ok := msg.(pingMsg)
	if !ok {
		return
	}
	if p.hops <= 0 {
		return
	}
	for _, nb := range e.env.Neighbors() {
		e.env.Send(nb.ID, pingMsg{hops: p.hops - 1})
	}
}

func (e *echoNode) LinkDown(routing.NodeID) { e.downs++ }
func (e *echoNode) LinkUp(routing.NodeID)   { e.ups++ }

func buildEcho(t *testing.T, g *topology.Graph) (*Network, map[routing.NodeID]*echoNode) {
	t.Helper()
	nodes := make(map[routing.NodeID]*echoNode)
	net, err := NewNetwork(Config{
		Topology: g,
		Build: func(env Env) Protocol {
			n := &echoNode{}
			nodes[env.Self()] = n
			return n
		},
		DelaySeed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

func TestNewNetworkValidation(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNetwork(Config{Build: func(Env) Protocol { return nil }}); err == nil {
		t.Fatal("missing topology must be rejected")
	}
	if _, err := NewNetwork(Config{Topology: g}); err == nil {
		t.Fatal("missing builder must be rejected")
	}
	if _, err := NewNetwork(Config{
		Topology: g,
		Build:    func(Env) Protocol { return nil },
		MinDelay: 5 * time.Millisecond,
		MaxDelay: 1 * time.Millisecond,
	}); err == nil {
		t.Fatal("inverted delay bounds must be rejected")
	}
}

func TestMessageDeliveryAndAccounting(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	if _, ok := net.Run(0); !ok {
		t.Fatal("startup should quiesce")
	}
	// Inject a ping at node 1 with a 2-hop budget.
	net.ResetStats()
	net.schedule(0, func() { nodes[1].Handle(1, pingMsg{hops: 2}) })
	if _, ok := net.Run(10000); !ok {
		t.Fatal("run did not quiesce")
	}
	// 1 sends to 2; 2 sends to 1 and 3 — so: node1 received the
	// injected ping plus 2's echo, node3 received one, then they send
	// hops=0 messages that are absorbed.
	st := net.Stats()
	if st.Messages == 0 || st.Units != st.Messages {
		t.Fatalf("stats = %+v; want units == messages > 0", st)
	}
	if st.UnitsByKind["test.ping"] != st.Units {
		t.Fatalf("per-kind accounting mismatch: %+v", st)
	}
	if nodes[3].received == 0 {
		t.Fatal("node 3 never got the forwarded ping")
	}
}

// LinkDelay returns the propagation delay assigned to link a—b and
// whether the link exists.
func (n *Network) LinkDelay(a, b routing.NodeID) (time.Duration, bool) {
	li, ok := n.linkAt[keyOf(a, b)]
	if !ok {
		return 0, false
	}
	return n.links[li].delay, true
}

func TestDelaysAreFixedPerLinkAndBounded(t *testing.T) {
	g, err := topogen.BRITE(30, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := buildEcho(t, g)
	for _, e := range g.Edges() {
		d, ok := net.LinkDelay(e.A, e.B)
		if !ok {
			t.Fatalf("no delay for %v", e)
		}
		if d < 0 || d > 5*time.Millisecond {
			t.Fatalf("delay %v out of the paper's 0-5 ms range", d)
		}
		// Same link, same answer (fixed delay → FIFO sessions).
		if d2, _ := net.LinkDelay(e.B, e.A); d2 != d {
			t.Fatalf("delay must be symmetric per link: %v vs %v", d, d2)
		}
	}
}

func TestFailAndRestoreLink(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	net.Run(0)
	if !net.FailLink(1, 2) {
		t.Fatal("failing an up link should succeed")
	}
	if net.FailLink(1, 2) {
		t.Fatal("failing a down link should report false")
	}
	net.Run(0)
	if nodes[1].downs != 1 || nodes[2].downs != 1 {
		t.Fatalf("both endpoints must see LinkDown: %d, %d", nodes[1].downs, nodes[2].downs)
	}
	// Messages sent while down are dropped.
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if nodes[2].received != 0 {
		t.Fatal("message over a down link must be dropped")
	}
	if net.Stats().Dropped == 0 {
		t.Fatal("drop must be accounted")
	}
	if !net.RestoreLink(1, 2) {
		t.Fatal("restoring a down link should succeed")
	}
	if net.RestoreLink(1, 2) {
		t.Fatal("restoring an up link should report false")
	}
	net.Run(0)
	if nodes[1].ups != 1 || nodes[2].ups != 1 {
		t.Fatalf("both endpoints must see LinkUp: %d, %d", nodes[1].ups, nodes[2].ups)
	}
	// Delivery works again.
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if nodes[2].received != 1 {
		t.Fatal("message after restore must be delivered")
	}
}

func TestInFlightMessagesLostOnFailure(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[routing.NodeID]*echoNode)
	net, err := NewNetwork(Config{
		Topology: g,
		Build: func(env Env) Protocol {
			n := &echoNode{}
			nodes[env.Self()] = n
			return n
		},
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	// Send, then fail the link before the 1 ms delivery completes.
	net.schedule(0, func() {
		nodes[1].env.Send(2, pingMsg{})
		net.FailLink(1, 2)
	})
	net.Run(0)
	if nodes[2].received != 0 {
		t.Fatal("in-flight message must be lost when the link fails")
	}
}

func TestEventOrderIsDeterministic(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (int64, time.Duration) {
		net, nodes := buildEcho(t, g)
		net.Run(0)
		net.schedule(0, func() { nodes[1].Handle(1, pingMsg{hops: 3}) })
		net.Run(0)
		return net.Stats().Messages, net.Stats().LastSend
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Fatalf("two identical runs diverged: (%d,%v) vs (%d,%v)", m1, t1, m2, t2)
	}
}

func TestRunToConvergenceLimit(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	// A protocol that ping-pongs forever must hit the event limit.
	net, err := NewNetwork(Config{
		Topology: g,
		Build: func(env Env) Protocol {
			return &forever{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(500); err == nil {
		t.Fatal("a non-terminating protocol must return an error")
	}
}

// forever bounces a message between the two chain nodes endlessly.
type forever struct{ env Env }

func (f *forever) Start(env Env) {
	f.env = env
	for _, nb := range env.Neighbors() {
		env.Send(nb.ID, pingMsg{})
	}
}
func (f *forever) Handle(from routing.NodeID, _ Message) { f.env.Send(from, pingMsg{}) }
func (f *forever) LinkDown(routing.NodeID)               {}
func (f *forever) LinkUp(routing.NodeID)                 {}

func TestAfterTimers(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	net.Run(0)
	var fired []time.Duration
	env := nodes[1].env
	env.After(5*time.Millisecond, func() { fired = append(fired, net.Now()) })
	env.After(2*time.Millisecond, func() { fired = append(fired, net.Now()) })
	net.Run(0)
	if len(fired) != 2 {
		t.Fatalf("fired %d timers, want 2", len(fired))
	}
	if fired[0] != 2*time.Millisecond || fired[1] != 5*time.Millisecond {
		t.Fatalf("timers fired at %v, want [2ms 5ms]", fired)
	}
}

func TestNodeAccessorAndReset(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	net.Run(0)
	if net.Node(1) == nil || net.Node(99) != nil {
		t.Fatal("Node accessor broken")
	}
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if net.Stats().Messages == 0 {
		t.Fatal("expected traffic")
	}
	net.ResetStats()
	st := net.Stats()
	if st.Messages != 0 || st.Units != 0 || st.Bytes != 0 || st.LastSend != 0 {
		t.Fatalf("ResetStats left residue: %+v", st)
	}
}

func TestStatsSnapshotIsolation(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	net.Run(0)
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	snap := net.Stats()
	snap.UnitsByKind["test.ping"] = 999
	if net.Stats().UnitsByKind["test.ping"] == 999 {
		t.Fatal("Stats must return an isolated copy of the kind map")
	}
}

func TestTraceHook(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	nodes := make(map[routing.NodeID]*echoNode)
	net, err := NewNetwork(Config{
		Topology: g,
		Build: func(env Env) Protocol {
			n := &echoNode{}
			nodes[env.Self()] = n
			return n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Observe(func(ev TraceEvent) { events = append(events, ev) })
	net.Run(0)
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	net.FailLink(1, 2)
	net.Run(0)
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) }) // dropped
	net.Run(0)
	net.RestoreLink(1, 2)
	net.Run(0)

	counts := map[TraceKind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
		if ev.Kind.String() == "" {
			t.Fatal("kind must render")
		}
	}
	if counts[TraceSend] != 1 || counts[TraceDeliver] != 1 {
		t.Fatalf("send/deliver counts = %d/%d, want 1/1", counts[TraceSend], counts[TraceDeliver])
	}
	if counts[TraceDrop] != 1 {
		t.Fatalf("drop count = %d, want 1", counts[TraceDrop])
	}
	if counts[TraceLinkDown] != 1 || counts[TraceLinkUp] != 1 {
		t.Fatalf("link transition counts = %d/%d", counts[TraceLinkDown], counts[TraceLinkUp])
	}
	// Send precedes its delivery and carries the message.
	var send, deliver *TraceEvent
	for i := range events {
		switch events[i].Kind {
		case TraceSend:
			send = &events[i]
		case TraceDeliver:
			deliver = &events[i]
		}
	}
	if send == nil || deliver == nil || send.At > deliver.At || send.Msg == nil {
		t.Fatalf("send/deliver ordering broken: %+v %+v", send, deliver)
	}
	if TraceKind(99).String() != "trace(99)" {
		t.Fatal("unknown kind rendering broken")
	}
}

func TestEventsAndUndeliverableStats(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	net.Run(0)
	ev0 := net.Stats().Events
	if ev0 == 0 {
		t.Fatal("startup must process events")
	}
	net.ResetStats()
	if got := net.Stats().Events; got != ev0 {
		t.Fatalf("ResetStats must preserve the lifetime event count: %d vs %d", got, ev0)
	}
	net.FailLink(1, 2)
	net.Run(0)
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	st := net.Stats()
	if st.Undeliverable != 1 || st.Dropped != 1 {
		t.Fatalf("send on a down link: undeliverable=%d dropped=%d, want 1/1", st.Undeliverable, st.Dropped)
	}
	if st.Events <= ev0 {
		t.Fatal("event count must keep growing")
	}
}

func TestInFlightDropIsNotUndeliverable(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make(map[routing.NodeID]*echoNode)
	net, err := NewNetwork(Config{
		Topology: g,
		Build: func(env Env) Protocol {
			n := &echoNode{}
			nodes[env.Self()] = n
			return n
		},
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0)
	net.ResetStats()
	net.schedule(0, func() {
		nodes[1].env.Send(2, pingMsg{})
		net.FailLink(1, 2)
	})
	net.Run(0)
	st := net.Stats()
	if st.Dropped != 1 || st.Undeliverable != 0 {
		t.Fatalf("in-flight loss: dropped=%d undeliverable=%d, want 1/0", st.Dropped, st.Undeliverable)
	}
}

// byteMsg is a sized test message.
type byteMsg struct{}

func (byteMsg) Kind() string   { return "test.sized" }
func (byteMsg) Units() int     { return 3 }
func (byteMsg) WireBytes() int { return 40 }

func TestPerKindMessageAndByteAccounting(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	net.Run(0)
	net.ResetStats()
	net.schedule(0, func() {
		nodes[1].env.Send(2, byteMsg{})
		nodes[1].env.Send(2, byteMsg{})
	})
	net.Run(0)
	st := net.Stats()
	if st.MsgsByKind["test.sized"] != 2 {
		t.Fatalf("MsgsByKind = %v", st.MsgsByKind)
	}
	if st.UnitsByKind["test.sized"] != 6 {
		t.Fatalf("UnitsByKind = %v", st.UnitsByKind)
	}
	if st.BytesByKind["test.sized"] != 80 || st.Bytes != 80 {
		t.Fatalf("BytesByKind = %v, Bytes = %d", st.BytesByKind, st.Bytes)
	}
}

func TestRouteChangedAccounting(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEcho(t, g)
	var traced []TraceEvent
	net.Observe(func(ev TraceEvent) { traced = append(traced, ev) })
	net.Run(0)
	net.schedule(2*time.Millisecond, func() { nodes[1].env.RouteChanged(3) })
	net.schedule(5*time.Millisecond, func() { nodes[2].env.RouteChanged(3) })
	net.schedule(7*time.Millisecond, func() { nodes[1].env.RouteChanged(2) })
	net.Run(0)

	st := net.Stats()
	if st.RouteChanges != 3 {
		t.Fatalf("RouteChanges = %d, want 3", st.RouteChanges)
	}
	got := map[routing.NodeID]time.Duration{}
	var order []routing.NodeID
	net.LastRouteChanges(func(dest routing.NodeID, at time.Duration) {
		got[dest] = at
		order = append(order, dest)
	})
	// Destination 3 keeps its LATEST change time; destination 2 has one.
	if got[3] != 5*time.Millisecond || got[2] != 7*time.Millisecond {
		t.Fatalf("route-change times = %v", got)
	}
	if len(order) != 2 || order[0] > order[1] {
		t.Fatalf("iteration order not deterministic ascending: %v", order)
	}
	var routes int
	for _, ev := range traced {
		if ev.Kind == TraceRouteChange {
			routes++
			if ev.Kind.String() != "route" {
				t.Fatalf("kind renders %q", ev.Kind.String())
			}
		}
	}
	if routes != 3 {
		t.Fatalf("traced %d route events, want 3", routes)
	}

	net.ResetStats()
	st = net.Stats()
	if st.RouteChanges != 0 {
		t.Fatal("ResetStats must clear RouteChanges")
	}
	net.LastRouteChanges(func(routing.NodeID, time.Duration) {
		t.Fatal("ResetStats must clear route-change timestamps")
	})
}
