package sim

import (
	"strings"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
)

// TestReliableBackoffClampsAtMaxRTO pins the retransmit schedule under
// a long partition: doubling stops at MaxRTO, so retries 4 ms, 8 ms,
// then 8 ms flat instead of 16, 32, … unbounded.
func TestReliableBackoffClampsAtMaxRTO(t *testing.T) {
	var sendTimes []time.Duration
	cfg := ReliableConfig{initRTO: 4 * time.Millisecond, backoffCap: 8 * time.Millisecond, retryLimit: 4}
	net, inners := buildReliablePair(t, cfg, nil)
	net.Observe(func(ev TraceEvent) {
		if ev.Kind == TraceSend && ev.From == 1 {
			if _, ok := ev.Msg.(DataFrame); ok {
				sendTimes = append(sendTimes, ev.At)
			}
		}
	})
	net.Run(0)
	// Black-hole the reverse path: no ack ever returns.
	net.SetInjector(funcInjector{f: func(from, _ routing.NodeID, _ Message) FaultDecision {
		if from == 2 {
			return FaultDecision{Drop: true}
		}
		return FaultDecision{}
	}})
	base := net.Now()
	net.schedule(0, func() { inners[1].env.Send(2, pingMsg{}) })
	net.Run(0)

	// Original, then backoff 4, 8, 8 (clamped), 8 (clamped).
	want := []time.Duration{
		base,
		base + 4*time.Millisecond,
		base + 12*time.Millisecond,
		base + 20*time.Millisecond,
		base + 28*time.Millisecond,
	}
	if len(sendTimes) != len(want) {
		t.Fatalf("sent %d data frames (%v), want %d", len(sendTimes), sendTimes, len(want))
	}
	for i := range want {
		if sendTimes[i] != want[i] {
			t.Fatalf("retransmit %d at %v, want %v (full schedule %v)", i, sendTimes[i], want[i], sendTimes)
		}
	}
}

// stallReporter never converges (a self-rearming timer) and reports
// liveness sessions, so the watchdog's stall diagnostics exercise the
// SessionReporter path.
type stallReporter struct {
	env      Env
	sessions []LinkSession
}

func (s *stallReporter) Start(env Env) {
	s.env = env
	var rearm func()
	rearm = func() { s.env.After(time.Millisecond, rearm) }
	rearm()
}
func (s *stallReporter) Handle(routing.NodeID, Message) {}
func (s *stallReporter) LinkDown(routing.NodeID)        {}
func (s *stallReporter) LinkUp(routing.NodeID)          {}
func (s *stallReporter) LinkSessions() []LinkSession    { return s.sessions }

// passThrough is an adapter that adds nothing: it forwards every upcall
// and exposes the wrapped protocol through Inner(), like the transport
// and liveness wrappers do.
type passThrough struct{ Protocol }

func (p passThrough) Inner() Protocol { return p.Protocol }

// TestWatchdogReportsLinkSessions checks that a stalled node's per-link
// session state appears in the convergence error, non-up sessions
// spelled out and up sessions counted — also when the reporting layer
// sits under another adapter, as liveness does under a tracing wrapper.
func TestWatchdogReportsLinkSessions(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		g, err := topogen.Chain(2)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make(map[routing.NodeID]*stallReporter)
		net, err := NewNetwork(Config{
			Topology: g,
			Build: func(env Env) Protocol {
				n := &stallReporter{}
				nodes[env.Self()] = n
				if wrapped {
					return passThrough{n}
				}
				return n
			},
			MinDelay: time.Millisecond,
			MaxDelay: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[1].sessions = []LinkSession{
			{Peer: 2, State: "init", Since: 3 * time.Millisecond},
			{Peer: 7, State: "up", Since: time.Millisecond},
		}
		nodes[2].sessions = []LinkSession{{Peer: 1, State: "up", Since: time.Millisecond}}
		_, _, err = net.RunToConvergence(200)
		if err == nil {
			t.Fatal("self-rearming timers must trip the watchdog")
		}
		msg := err.Error()
		for _, want := range []string{"links[N2:init@3ms 1 up]", "links[1 up]"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("wrapped=%v: watchdog diagnostics missing %q:\n%s", wrapped, want, msg)
			}
		}
	}
}
