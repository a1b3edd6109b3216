package sim

import (
	"errors"
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

// pingTimers ping-pongs like forever and also arms node timers a second
// and more ahead, which never fire within the watchdog's budget.
type pingTimers struct{ forever }

const pingTimersPerNode = 4

func (p *pingTimers) Start(env Env) {
	p.forever.Start(env)
	for k := 0; k < pingTimersPerNode; k++ {
		env.After(time.Second<<k, func() {})
	}
}

// TestWatchdogCountsEveryQueuedEvent trips the watchdog with work in
// every part of the queue: deliveries due now and within a millisecond
// (bucket 0 and the low buckets), node timers 1–8 s ahead and detached
// Schedule closures up to 2^40 ns ahead (the top buckets). The per-node
// breakdown plus the detached count must account for QueueLen, and
// QueueLen for exactly what the test queued.
func TestWatchdogCountsEveryQueuedEvent(t *testing.T) {
	g, err := topogen.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Config{
		Topology: g,
		Build:    func(Env) Protocol { return &pingTimers{} },
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	detached := 0
	for k := 30; k <= 40; k++ {
		net.Schedule(time.Duration(1)<<k, func() {})
		detached++
	}
	// Every delivery sends one ping back, so the pings Start sent (one
	// per link end) stay in flight; nothing else fires within 300
	// events, about 50 ms.
	pings := 2 * len(g.Edges())
	timers := pingTimersPerNode * len(g.Nodes())
	_, _, err = net.RunToConvergence(300)
	var ce *ConvergenceError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %v, want a *ConvergenceError", err)
	}
	if ce.SimTime >= time.Second {
		t.Fatalf("the watchdog fired at %v, after the first timer was due", ce.SimTime)
	}
	deliveries, nodeTimers := 0, 0
	for _, p := range ce.Pending {
		deliveries += p.Deliveries
		nodeTimers += p.Timers
	}
	if sum := deliveries + nodeTimers + ce.DetachedTimers; sum != ce.QueueLen {
		t.Fatalf("the breakdown counts %d events (%d deliveries, %d timers, %d detached), QueueLen is %d",
			sum, deliveries, nodeTimers, ce.DetachedTimers, ce.QueueLen)
	}
	if deliveries != pings || nodeTimers != timers || ce.DetachedTimers != detached {
		t.Fatalf("counted %d deliveries, %d timers, %d detached; queued %d, %d, %d",
			deliveries, nodeTimers, ce.DetachedTimers, pings, timers, detached)
	}
}

// TestNegativeDelayPanics checks that both ways of scheduling refuse a
// time before now, naming who asked, the delay and the current time, and
// that neither an injector's duplicate nor a link delay can get there.
func TestNegativeDelayPanics(t *testing.T) {
	newNet := func(build Builder) *Network {
		g, err := topogen.Chain(2)
		if err != nil {
			t.Fatal(err)
		}
		net, err := NewNetwork(Config{Topology: g, Build: build})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	mustPanic := func(t *testing.T, f func(), want ...string) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			msg, _ := r.(string)
			if r == nil {
				t.Fatal("no panic")
			}
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Fatalf("panic %q lacks %q", msg, w)
				}
			}
		}()
		f()
	}
	t.Run("Env.After", func(t *testing.T) {
		net := newNet(func(env Env) Protocol {
			if env.Self() != 2 {
				return &forever{}
			}
			return &timerAt{at: 5 * time.Millisecond, fn: func() { env.After(-3*time.Millisecond, func() {}) }}
		})
		mustPanic(t, func() { net.Run(0) }, "node N2", "delay -3ms", "t=5ms")
	})
	t.Run("Network.Schedule", func(t *testing.T) {
		net := newNet(func(Env) Protocol { return &timerAt{} })
		net.Schedule(7*time.Millisecond, func() {})
		net.Run(0)
		mustPanic(t, func() { net.Schedule(-time.Nanosecond, func() {}) }, "external", "delay -1ns", "t=7ms")
		if _, ok := net.Run(0); !ok || net.Now() != 7*time.Millisecond {
			t.Fatalf("the refused closure was queued: now %v", net.Now())
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		net := newNet(func(Env) Protocol { return &forever{} })
		net.SetInjector(funcInjector{f: func(routing.NodeID, routing.NodeID, Message) FaultDecision {
			return FaultDecision{Duplicate: true, DupJitter: -time.Hour}
		}})
		mustPanic(t, func() { net.Run(0) }, "the injector (a duplicate from node N1)", "t=0s")
	})
	t.Run("MinDelay", func(t *testing.T) {
		g, err := topogen.Chain(2)
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewNetwork(Config{Topology: g, Build: func(Env) Protocol { return &forever{} }, MinDelay: -time.Millisecond})
		if err == nil || !strings.Contains(err.Error(), "negative MinDelay") {
			t.Fatalf("NewNetwork with MinDelay -1ms = %v, want a negative-MinDelay error", err)
		}
	})
}

// timerAt arms one timer at Start and otherwise does nothing.
type timerAt struct {
	at time.Duration
	fn func()
}

func (p *timerAt) Start(env Env) {
	if p.fn != nil {
		env.After(p.at, p.fn)
	}
}
func (p *timerAt) Handle(routing.NodeID, Message) {}
func (p *timerAt) LinkDown(routing.NodeID)        {}
func (p *timerAt) LinkUp(routing.NodeID)          {}
