package sim

import (
	"errors"
	"strings"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// scriptInjector decides faults from a fixed script, one entry per
// Send, cycling; used to exercise the delivery-path hook precisely.
type scriptInjector struct {
	script []FaultDecision
	calls  int
}

func (s *scriptInjector) Deliver(from, to routing.NodeID, msg Message) FaultDecision {
	dec := s.script[s.calls%len(s.script)]
	s.calls++
	return dec
}

// buildEchoFixed is buildEcho with a fixed 1 ms delay on every link and
// an optional injector and trace sink.
func buildEchoFixed(t *testing.T, g *topology.Graph, inj Injector, trace func(TraceEvent)) (*Network, map[routing.NodeID]*echoNode) {
	t.Helper()
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
	net.SetInjector(inj)
	if trace != nil {
		net.Observe(trace)
	}
	return net, nodes
}

func TestInjectedLossDropsAtDelivery(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	inj := &scriptInjector{script: []FaultDecision{{Drop: true}}}
	net, nodes := buildEchoFixed(t, g, inj, func(ev TraceEvent) { events = append(events, ev) })
	net.Run(0)
	net.ResetStats()
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)

	if nodes[2].received != 0 {
		t.Fatal("fault-dropped message must not be delivered")
	}
	st := net.Stats()
	if st.FaultDrops != 1 || st.Dropped != 1 {
		t.Fatalf("FaultDrops=%d Dropped=%d, want 1/1", st.FaultDrops, st.Dropped)
	}
	// The decision is traced at send time, the drop at delivery time,
	// and they bracket the link delay.
	var loss, drop *TraceEvent
	for i := range events {
		switch events[i].Kind {
		case TraceFaultLoss:
			loss = &events[i]
		case TraceDropFault:
			drop = &events[i]
		}
	}
	if loss == nil || drop == nil {
		t.Fatalf("missing fault-loss or drop-fault trace event")
	}
	if drop.At != loss.At+time.Millisecond {
		t.Fatalf("drop at %v, decision at %v; want the 1 ms link delay between them", drop.At, loss.At)
	}
	if loss.Kind.String() != "fault-loss" || drop.Kind.String() != "drop-fault" {
		t.Fatalf("kind names: %q, %q", loss.Kind.String(), drop.Kind.String())
	}
}

func TestInjectedDuplicateDeliversTwice(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	inj := &scriptInjector{script: []FaultDecision{
		{Duplicate: true, DupJitter: 2 * time.Millisecond},
		{}, // echo replies pass clean
	}}
	net, nodes := buildEchoFixed(t, g, inj, nil)
	net.Run(0)
	net.ResetStats()
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if nodes[2].received != 2 {
		t.Fatalf("received %d copies, want 2", nodes[2].received)
	}
	if st := net.Stats(); st.FaultDups != 1 {
		t.Fatalf("FaultDups = %d, want 1", st.FaultDups)
	}
}

func TestInjectedJitterDelaysDelivery(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	var deliverAt time.Duration
	inj := &scriptInjector{script: []FaultDecision{{Jitter: 3 * time.Millisecond}}}
	net, nodes := buildEchoFixed(t, g, inj, func(ev TraceEvent) {
		if ev.Kind == TraceDeliver {
			deliverAt = ev.At
		}
	})
	net.Run(0)
	base := net.Now()
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if want := base + time.Millisecond + 3*time.Millisecond; deliverAt != want {
		t.Fatalf("delivered at %v, want %v (1 ms link + 3 ms jitter)", deliverAt, want)
	}
}

// The satellite edge case: a message sent while the link is up must be
// lost if the link flaps down and back up — even within the same
// simulated instant — before the delivery fires. The link's epoch
// advances on the flap's down half, so the delivery's stale epoch is
// detected although the link is up again when it fires.
func TestInFlightDroppedAcrossSameInstantFlap(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, nodes := buildEchoFixed(t, g, nil, nil)
	net.Run(0)
	net.ResetStats()
	net.schedule(0, func() {
		nodes[1].env.Send(2, pingMsg{})
		if !net.FailLink(1, 2) || !net.RestoreLink(1, 2) {
			t.Error("same-instant flap pair must apply")
		}
	})
	net.Run(0)
	if nodes[2].received != 0 {
		t.Fatal("message in flight across a down→up flap must be dropped")
	}
	st := net.Stats()
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", st.Dropped)
	}
	// And the link really is usable again afterwards.
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if nodes[2].received != 1 {
		t.Fatal("delivery after the flap must work")
	}
}

func TestCrashNodeSemantics(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	net, nodes := buildEchoFixed(t, g, nil, func(ev TraceEvent) { events = append(events, ev) })
	net.Run(0)
	crashed := nodes[2]
	timerFired := false
	crashOK := false
	// Arm a 5 ms timer on node 2, then crash it 1 ms later — the timer is
	// still pending at crash time and must die with the instance.
	net.schedule(0, func() { crashed.env.After(5*time.Millisecond, func() { timerFired = true }) })
	net.schedule(time.Millisecond, func() { crashOK = net.CrashNode(2) })
	net.Run(0)

	if !crashOK {
		t.Fatal("crashing an up node must succeed")
	}
	if net.CrashNode(2) {
		t.Fatal("crashing a crashed node must report false")
	}
	if net.NodeIsUp(2) || !net.NodeIsUp(1) {
		t.Fatal("NodeIsUp wrong after crash")
	}
	if nodes[1].downs != 1 || nodes[3].downs != 1 {
		t.Fatalf("neighbors must see LinkDown: %d, %d", nodes[1].downs, nodes[3].downs)
	}
	if crashed.downs != 0 {
		t.Fatal("a dead process cannot observe its own links failing")
	}
	if timerFired {
		t.Fatal("a pending timer of the crashed instance must not fire")
	}
	if st := net.Stats(); st.StaleTimers != 1 {
		t.Fatalf("StaleTimers = %d, want 1", st.StaleTimers)
	}
	// Messages toward the crashed node go nowhere.
	net.ResetStats()
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if st := net.Stats(); st.Undeliverable != 1 {
		t.Fatalf("Undeliverable = %d, want 1", st.Undeliverable)
	}
	// RestoreLink must refuse while an endpoint is crashed.
	if net.RestoreLink(1, 2) {
		t.Fatal("RestoreLink must refuse a crashed endpoint")
	}

	if net.RestartNode(1) {
		t.Fatal("restarting an up node must report false")
	}
	if !net.RestartNode(2) {
		t.Fatal("restarting the crashed node must succeed")
	}
	fresh := nodes[2] // Build registered the replacement instance
	if fresh == crashed {
		t.Fatal("restart must build a fresh protocol instance")
	}
	net.Run(0)
	if nodes[1].ups != 1 || nodes[3].ups != 1 {
		t.Fatalf("neighbors must see LinkUp on restart: %d, %d", nodes[1].ups, nodes[3].ups)
	}
	net.schedule(0, func() { nodes[1].env.Send(2, pingMsg{}) })
	net.Run(0)
	if fresh.received == 0 {
		t.Fatal("restarted node must receive traffic again")
	}
	var crashEvents, restartEvents int
	for _, ev := range events {
		switch ev.Kind {
		case TraceCrash:
			crashEvents++
			if ev.Kind.String() != "crash" {
				t.Fatalf("crash kind renders %q", ev.Kind.String())
			}
		case TraceRestart:
			restartEvents++
			if ev.Kind.String() != "restart" {
				t.Fatalf("restart kind renders %q", ev.Kind.String())
			}
		}
	}
	if crashEvents != 1 || restartEvents != 1 {
		t.Fatalf("crash/restart trace events = %d/%d, want 1/1", crashEvents, restartEvents)
	}
}

func TestConvergenceErrorDiagnostics(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Config{
		Topology: g,
		Build:    func(env Env) Protocol { return &forever{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, cerr := net.RunToConvergence(500)
	var ce *ConvergenceError
	if !errors.As(cerr, &ce) {
		t.Fatalf("error is %T, want *ConvergenceError", cerr)
	}
	if ce.MaxEvents != 500 || len(ce.Pending) == 0 {
		t.Fatalf("diagnostics incomplete: %+v", ce)
	}
	total := 0
	for _, p := range ce.Pending {
		total += p.Deliveries
		if p.ByKind["test.ping"] == 0 {
			t.Fatalf("pending-kind breakdown missing: %+v", p)
		}
	}
	if total == 0 {
		t.Fatal("a ping-ponging network must have pending deliveries")
	}
	msg := cerr.Error()
	for _, want := range []string{"no convergence", "test.ping", "pending"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q lacks %q", msg, want)
		}
	}
}

func TestCheckpointRefusedUnderFaults(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	inj := &scriptInjector{script: []FaultDecision{{}}}
	net, _ := buildEchoFixed(t, g, inj, nil)
	net.Run(0)
	if _, err := net.Checkpoint(); !errors.Is(err, ErrFaultsActive) {
		t.Fatalf("Checkpoint under an injector = %v, want ErrFaultsActive", err)
	}
	// Detaching the injector lifts the refusal (echoNode is not a
	// Snapshotter, so the next gate is ErrNotSnapshottable — the point is
	// the faults gate no longer fires).
	net.SetInjector(nil)
	if _, err := net.Checkpoint(); !errors.Is(err, ErrNotSnapshottable) {
		t.Fatalf("Checkpoint after detach = %v, want ErrNotSnapshottable", err)
	}
}

func TestCheckpointRefusedWhileCrashed(t *testing.T) {
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := buildEchoFixed(t, g, nil, nil)
	net.Run(0)
	net.CrashNode(2)
	net.Run(0)
	_, cerr := net.Checkpoint()
	if cerr == nil || !strings.Contains(cerr.Error(), "crashed") {
		t.Fatalf("Checkpoint with a crashed node = %v, want a crashed-node error", cerr)
	}
}
