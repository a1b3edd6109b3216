package sim

import (
	"runtime"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// funcInjector adapts a closure to the Injector interface.
type funcInjector struct {
	f func(from, to routing.NodeID, msg Message) FaultDecision
}

func (fi funcInjector) Deliver(from, to routing.NodeID, msg Message) FaultDecision {
	return fi.f(from, to, msg)
}

// recNode records every payload the transport releases to it, in order.
type recNode struct {
	env Env
	got []Message
}

func (r *recNode) Start(env Env)                        { r.env = env }
func (r *recNode) Handle(_ routing.NodeID, msg Message) { r.got = append(r.got, msg) }
func (r *recNode) LinkDown(routing.NodeID)              {}
func (r *recNode) LinkUp(routing.NodeID)                {}

// buildReliablePair builds a 2-node chain of Reliable-wrapped recNodes
// with fixed 1 ms delays.
func buildReliablePair(t *testing.T, cfg ReliableConfig, inj Injector) (*Network, map[routing.NodeID]*recNode) {
	t.Helper()
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	inners := make(map[routing.NodeID]*recNode)
	build := Reliable(func(env Env) Protocol {
		n := &recNode{}
		inners[env.Self()] = n
		return n
	}, cfg)
	net, err := NewNetwork(Config{
		Topology: g,
		Build:    build,
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.SetInjector(inj)
	return net, inners
}

func TestReliableRetransmitsThroughLoss(t *testing.T) {
	dropped := 0
	inj := funcInjector{f: func(_, _ routing.NodeID, msg Message) FaultDecision {
		// Lose the first two copies of the data frame; acks pass clean.
		if f, ok := msg.(DataFrame); ok && f.Payload.Kind() == "test.ping" && dropped < 2 {
			dropped++
			return FaultDecision{Drop: true}
		}
		return FaultDecision{}
	}}
	net, inners := buildReliablePair(t, ReliableConfig{initRTO: 10 * time.Millisecond}, inj)
	net.Run(0)
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{}) })
	net.Run(0)

	if len(inners[2].got) != 1 {
		t.Fatalf("delivered %d payloads, want exactly 1", len(inners[2].got))
	}
	// Only node 1 sends data frames, so the network's transport totals
	// are its own.
	st := net.Stats()
	if st.Retransmits != 2 || st.FaultDrops != 2 {
		t.Fatalf("Stats retransmits=%d faultDrops=%d, want 2/2", st.Retransmits, st.FaultDrops)
	}
	// First transmission keeps the payload's kind; retransmissions are
	// separable under their own kind.
	if st.MsgsByKind["test.ping"] != 1 || st.MsgsByKind["transport.rexmit"] != 2 {
		t.Fatalf("per-kind accounting: %v", st.MsgsByKind)
	}
	if st.MsgsByKind["transport.ack"] == 0 {
		t.Fatal("acks must be accounted under transport.ack")
	}
}

func TestReliableSuppressesDuplicates(t *testing.T) {
	duped := false
	inj := funcInjector{f: func(_, _ routing.NodeID, msg Message) FaultDecision {
		if f, ok := msg.(DataFrame); ok && f.Payload.Kind() == "test.ping" && !duped {
			duped = true
			return FaultDecision{Duplicate: true, DupJitter: 2 * time.Millisecond}
		}
		return FaultDecision{}
	}}
	net, inners := buildReliablePair(t, ReliableConfig{}, inj)
	net.Run(0)
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{}) })
	net.Run(0)

	if len(inners[2].got) != 1 {
		t.Fatalf("delivered %d payloads, want exactly 1 (duplicate suppressed)", len(inners[2].got))
	}
	// Only node 2 receives data frames, so the suppression is its own.
	if st := net.Stats(); st.DupSuppressed != 1 {
		t.Fatalf("Stats.DupSuppressed = %d, want 1", st.DupSuppressed)
	}
}

func TestReliableReordersIntoSequence(t *testing.T) {
	first := true
	inj := funcInjector{f: func(_, _ routing.NodeID, msg Message) FaultDecision {
		// Delay the first data frame well past the second: seq 1 arrives
		// after seq 2, which the receiver must buffer.
		if f, ok := msg.(DataFrame); ok && f.Payload.Kind() != "transport.ack" && first {
			first = false
			return FaultDecision{Jitter: 10 * time.Millisecond}
		}
		return FaultDecision{}
	}}
	net, inners := buildReliablePair(t, ReliableConfig{initRTO: time.Second}, inj)
	net.Run(0)
	net.schedule(0, func() {
		inners[1].env.Send(2, pingMsg{hops: 1})
		inners[1].env.Send(2, pingMsg{hops: 2})
	})
	net.Run(0)

	if len(inners[2].got) != 2 {
		t.Fatalf("delivered %d payloads, want 2", len(inners[2].got))
	}
	a := inners[2].got[0].(pingMsg)
	b := inners[2].got[1].(pingMsg)
	if a.hops != 1 || b.hops != 2 {
		t.Fatalf("out-of-order release: hops %d then %d, want 1 then 2", a.hops, b.hops)
	}
}

func TestReliableAbandonsAfterMaxRetries(t *testing.T) {
	inj := funcInjector{f: func(from, _ routing.NodeID, msg Message) FaultDecision {
		// Black-hole everything node 1 sends; the reverse direction works.
		if from == 1 {
			return FaultDecision{Drop: true}
		}
		return FaultDecision{}
	}}
	net, inners := buildReliablePair(t, ReliableConfig{initRTO: time.Millisecond, retryLimit: 3}, inj)
	net.Run(0)
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{}) })
	net.Run(0)

	if len(inners[2].got) != 0 {
		t.Fatal("black-holed payload must not arrive")
	}
	// Only node 1 sends data frames, so the network's transport totals
	// are its own.
	if st := net.Stats(); st.Retransmits != 3 || st.TransportAbandoned != 1 {
		t.Fatalf("Stats retransmits=%d abandoned=%d, want 3/1", st.Retransmits, st.TransportAbandoned)
	}
}

func TestReliableBackoffDoubles(t *testing.T) {
	var sendTimes []time.Duration
	net, inners := buildReliablePair(t, ReliableConfig{initRTO: 4 * time.Millisecond, retryLimit: 2}, nil)
	net.Observe(func(ev TraceEvent) {
		if ev.Kind == TraceSend && ev.From == 1 {
			if _, ok := ev.Msg.(DataFrame); ok {
				sendTimes = append(sendTimes, ev.At)
			}
		}
	})
	net.Run(0)
	// Sever the reverse path so no ack ever returns, without tearing the
	// session down: black-hole acks via an injector installed mid-run.
	net.SetInjector(funcInjector{f: func(from, _ routing.NodeID, _ Message) FaultDecision {
		if from == 2 {
			return FaultDecision{Drop: true}
		}
		return FaultDecision{}
	}})
	base := net.Now()
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{}) })
	net.Run(0)

	// Original at base, retransmissions after 4 ms and then 8 ms more.
	want := []time.Duration{base, base + 4*time.Millisecond, base + 12*time.Millisecond}
	if len(sendTimes) != len(want) {
		t.Fatalf("sent %d data frames (%v), want %d", len(sendTimes), sendTimes, len(want))
	}
	for i := range want {
		if sendTimes[i] != want[i] {
			t.Fatalf("transmission %d at %v, want %v (exponential backoff)", i, sendTimes[i], want[i])
		}
	}
	// The payload still arrived (forward path is clean) — exactly once.
	if len(inners[2].got) != 1 {
		t.Fatalf("delivered %d payloads, want 1", len(inners[2].got))
	}
}

func TestReliableSessionResetOnFlap(t *testing.T) {
	net, inners := buildReliablePair(t, ReliableConfig{initRTO: 5 * time.Millisecond}, nil)
	net.Run(0)
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{hops: 1}) })
	net.Run(0)
	net.FailLink(1, 2)
	net.Run(0)
	net.RestoreLink(1, 2)
	net.Run(0)
	// The new session renumbers from 1; delivery must still be clean.
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{hops: 2}) })
	net.Run(0)
	if len(inners[2].got) != 2 {
		t.Fatalf("delivered %d payloads, want 2", len(inners[2].got))
	}
	if got := inners[2].got[1].(pingMsg).hops; got != 2 {
		t.Fatalf("post-flap payload hops = %d, want 2", got)
	}
	// Only node 1 sends data frames.
	if st := net.Stats(); st.Retransmits != 0 {
		t.Fatalf("clean flap needs no retransmissions, got %d", st.Retransmits)
	}
}

func TestReliablePassesThroughUnframed(t *testing.T) {
	net, inners := buildReliablePair(t, ReliableConfig{}, nil)
	net.Run(0)
	// Deliver a raw (unframed) message straight to the adapter, as an
	// unwrapped peer would.
	rel := net.Node(2).(*relNode)
	net.schedule(0, func() { rel.Handle(1, pingMsg{hops: 7}) })
	net.Run(0)
	if len(inners[2].got) != 1 || inners[2].got[0].(pingMsg).hops != 7 {
		t.Fatalf("unframed passthrough broken: %v", inners[2].got)
	}
	if rel.Inner() != Protocol(inners[2]) {
		t.Fatal("Inner() must expose the wrapped protocol")
	}
}

// nopEnv is an Env that discards sends and timers, so a benchmark of the
// transport's bookkeeping sees the transport alone.
type nopEnv struct{ nbrs []topology.Neighbor }

func (e *nopEnv) Self() routing.NodeID                   { return 1 }
func (e *nopEnv) Now() time.Duration                     { return 0 }
func (e *nopEnv) Send(routing.NodeID, Message)           {}
func (e *nopEnv) After(time.Duration, func())            {}
func (e *nopEnv) Neighbors() []topology.Neighbor         { return e.nbrs }
func (e *nopEnv) LinkIsUp(routing.NodeID) bool           { return true }
func (e *nopEnv) RouteChanged(routing.NodeID)            {}
func (e *nopEnv) RouteChangedVia(_, _, _ routing.NodeID) {}
func (e *nopEnv) Emit(string, routing.NodeID)            {}
func (e *nopEnv) Index() *topology.Index                 { return nil }

// BenchmarkReliableSendAck times the sender's bookkeeping per frame: a
// session first carries a 1,024-frame burst, acked at once, then steady
// traffic in which each frame is sent and cumulatively acked. The
// steady frames' cost must not depend on the burst (ns/frame, B/frame:
// the frame's box, its retransmission timer and the ack's box).
func BenchmarkReliableSendAck(b *testing.B) {
	env := &nopEnv{nbrs: []topology.Neighbor{{ID: 2}, {ID: 3}}}
	inner := &recNode{}
	rel := Reliable(func(Env) Protocol { return inner }, ReliableConfig{})(env)
	rel.Start(env)
	msg := Message(pingMsg{hops: 1})
	for i := 0; i < 1024; i++ {
		inner.env.Send(2, msg)
	}
	seq := uint64(1024)
	rel.Handle(2, Ack{Seq: seq})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inner.env.Send(2, msg)
		seq++
		rel.Handle(2, Ack{Seq: seq})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/frame")
}
