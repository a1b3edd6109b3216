package sim

import (
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// provNode reacts to a link event with a one-hop flood and a route
// report, exercising every provenance inheritance path: handler sends,
// route changes, and timer callbacks.
type provNode struct {
	env      Env
	useTimer bool
}

func (p *provNode) Start(env Env) { p.env = env }

func (p *provNode) Handle(_ routing.NodeID, msg Message) {
	m, ok := msg.(pingMsg)
	if !ok || m.hops <= 0 {
		return
	}
	for _, nb := range p.env.Neighbors() {
		p.env.Send(nb.ID, pingMsg{hops: m.hops - 1})
	}
}

func (p *provNode) LinkDown(peer routing.NodeID) {
	fire := func() {
		for _, nb := range p.env.Neighbors() {
			p.env.Send(nb.ID, pingMsg{hops: 1})
		}
		p.env.RouteChangedVia(peer, peer, routing.None)
	}
	if p.useTimer {
		p.env.After(time.Millisecond, fire)
	} else {
		fire()
	}
}

func (p *provNode) LinkUp(routing.NodeID) {}

func buildProv(t *testing.T, g *topology.Graph, useTimer bool) (*Network, *[]TraceEvent) {
	t.Helper()
	var events []TraceEvent
	net, err := NewNetwork(Config{
		Topology:  g,
		Build:     func(env Env) Protocol { return &provNode{useTimer: useTimer} },
		DelaySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Observe(func(ev TraceEvent) {
		if ev.Kind != TraceInstant {
			events = append(events, ev)
		}
	})
	return net, &events
}

// byKind indexes captured events by kind string.
func byKind(events []TraceEvent, kind TraceKind) []TraceEvent {
	var out []TraceEvent
	for _, ev := range events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func spanOf(events []TraceEvent, span uint64) (TraceEvent, bool) {
	for _, ev := range events {
		if ev.Span == span {
			return ev, true
		}
	}
	return TraceEvent{}, false
}

func TestProvenanceCausalChain(t *testing.T) {
	g, err := topogen.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	net, events := buildProv(t, g, false)
	if _, ok := net.Run(0); !ok {
		t.Fatal("startup should quiesce")
	}
	*events = (*events)[:0]

	// A root event after a drained Run: the active-cause registers must
	// have been reset, so the link-down is a top-level root.
	net.FailLink(2, 3)
	if _, ok := net.Run(100_000); !ok {
		t.Fatal("run did not quiesce")
	}

	downs := byKind(*events, TraceLinkDown)
	if len(downs) != 1 {
		t.Fatalf("got %d link-down events, want 1", len(downs))
	}
	root := downs[0]
	if root.Span == 0 || root.Parent != 0 || root.Depth != 0 {
		t.Fatalf("root link-down = %+v; want span>0, parent 0, depth 0", root)
	}

	// Spans are strictly increasing in emission order.
	last := uint64(0)
	for _, ev := range *events {
		if ev.Span <= last {
			t.Fatalf("span %d not after %d (%+v)", ev.Span, last, ev)
		}
		last = ev.Span
	}

	// Every send fired by a LinkDown handler parents to the root with
	// depth 1; forwarded sends sit one hop deeper than their delivery.
	for _, snd := range byKind(*events, TraceSend) {
		parent, ok := spanOf(*events, snd.Parent)
		if !ok {
			t.Fatalf("send %+v has unknown parent", snd)
		}
		if snd.Depth != parent.Depth+1 {
			t.Fatalf("send depth %d, want parent depth %d + 1 (%+v)", snd.Depth, parent.Depth, snd)
		}
		if parent.Kind == TraceLinkDown && snd.Depth != 1 {
			t.Fatalf("root-triggered send at depth %d, want 1", snd.Depth)
		}
	}

	// Deliveries inherit the send's span and depth.
	for _, del := range byKind(*events, TraceDeliver) {
		parent, ok := spanOf(*events, del.Parent)
		if !ok || parent.Kind != TraceSend {
			t.Fatalf("deliver %+v must parent to a send", del)
		}
		if del.Depth != parent.Depth {
			t.Fatalf("deliver depth %d != send depth %d", del.Depth, parent.Depth)
		}
	}

	// The LinkDown route reports parent to the root at depth 0 and carry
	// the next hops passed to RouteChangedVia.
	routes := byKind(*events, TraceRouteChange)
	if len(routes) != 2 { // both endpoints report
		t.Fatalf("got %d route events, want 2", len(routes))
	}
	for _, rt := range routes {
		if rt.Parent != root.Span || rt.Depth != 0 {
			t.Fatalf("route %+v; want parent %d depth 0", rt, root.Span)
		}
		if !rt.HasVia || rt.OldNext == routing.None || rt.NewNext != routing.None {
			t.Fatalf("route %+v; want via old!=None new=None", rt)
		}
	}

	// After the run drains, the next root is again top-level.
	*events = (*events)[:0]
	net.RestoreLink(2, 3)
	ups := byKind(*events, TraceLinkUp)
	if len(ups) != 1 || ups[0].Parent != 0 || ups[0].Depth != 0 {
		t.Fatalf("link-up after drain = %+v; want top-level root", ups)
	}
}

func TestProvenanceTimerInheritsCause(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	net, events := buildProv(t, g, true)
	if _, ok := net.Run(0); !ok {
		t.Fatal("startup should quiesce")
	}
	*events = (*events)[:0]

	net.FailLink(1, 2)
	if _, ok := net.Run(100_000); !ok {
		t.Fatal("run did not quiesce")
	}
	root := byKind(*events, TraceLinkDown)[0]
	// The sends and route reports fire inside an After callback; the
	// timer event must have carried the link-down cause across.
	var rooted int
	for _, snd := range byKind(*events, TraceSend) {
		if snd.Parent == root.Span {
			rooted++
			if snd.Depth != 1 {
				t.Fatalf("timer-fired send depth %d, want 1 (%+v)", snd.Depth, snd)
			}
		}
	}
	if rooted == 0 {
		t.Fatal("no send inherited the root cause through the timer")
	}
	for _, rt := range byKind(*events, TraceRouteChange) {
		if rt.Parent != root.Span || rt.Depth != 0 {
			t.Fatalf("timer-fired route %+v; want parent %d depth 0", rt, root.Span)
		}
	}
}

func TestProvenanceCrashRestartParenting(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	net, events := buildProv(t, g, false)
	if _, ok := net.Run(0); !ok {
		t.Fatal("startup should quiesce")
	}
	*events = (*events)[:0]

	if !net.CrashNode(2) {
		t.Fatal("crash refused")
	}
	if _, ok := net.Run(100_000); !ok {
		t.Fatal("run did not quiesce")
	}
	crashes := byKind(*events, TraceCrash)
	if len(crashes) != 1 {
		t.Fatalf("got %d crash events, want 1", len(crashes))
	}
	crash := crashes[0]
	if crash.Parent != 0 || crash.Depth != 0 {
		t.Fatalf("crash %+v; want top-level root", crash)
	}
	downs := byKind(*events, TraceLinkDown)
	if len(downs) != 2 { // node 2's two adjacencies
		t.Fatalf("got %d link-down events, want 2", len(downs))
	}
	for _, d := range downs {
		if d.Parent != crash.Span || d.Depth != 0 {
			t.Fatalf("crash adjacency link-down %+v; want parent %d depth 0", d, crash.Span)
		}
	}

	*events = (*events)[:0]
	if !net.RestartNode(2) {
		t.Fatal("restart refused")
	}
	if _, ok := net.Run(100_000); !ok {
		t.Fatal("run did not quiesce")
	}
	restart := byKind(*events, TraceRestart)[0]
	if restart.Parent != 0 || restart.Depth != 0 {
		t.Fatalf("restart %+v; want top-level root", restart)
	}
	for _, u := range byKind(*events, TraceLinkUp) {
		if u.Parent != restart.Span || u.Depth != 0 {
			t.Fatalf("restart adjacency link-up %+v; want parent %d depth 0", u, restart.Span)
		}
	}
}
