package liveness_test

import (
	"testing"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/invariant"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
)

// linkEvent is one LinkDown/LinkUp delivery as the wrapped protocol
// heard it.
type linkEvent struct {
	peer routing.NodeID
	up   bool
	at   time.Duration
}

// probe is a protocol that records every link event with its simulated
// timestamp and otherwise does nothing — the liveness wrapper around it
// is the only source of traffic.
type probe struct {
	env    sim.Env
	events []linkEvent
}

func (p *probe) Start(env sim.Env)                  { p.env = env }
func (p *probe) Handle(routing.NodeID, sim.Message) {}
func (p *probe) LinkDown(peer routing.NodeID) {
	p.events = append(p.events, linkEvent{peer: peer, up: false, at: p.env.Now()})
}
func (p *probe) LinkUp(peer routing.NodeID) {
	p.events = append(p.events, linkEvent{peer: peer, up: true, at: p.env.Now()})
}

// buildPair wires a 2-node chain of liveness-wrapped probes with fixed
// 1 ms link delay.
func buildPair(t *testing.T, cfg liveness.Config, inj sim.Injector) (*sim.Network, map[routing.NodeID]*probe) {
	t.Helper()
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	probes := make(map[routing.NodeID]*probe)
	build := liveness.Wrap(func(env sim.Env) sim.Protocol {
		p := &probe{}
		probes[env.Self()] = p
		return p
	}, cfg)
	net, err := sim.NewNetwork(sim.Config{
		Topology: g,
		Build:    build,
		MinDelay: time.Millisecond,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.SetInjector(inj)
	return net, probes
}

func livenessNode(t *testing.T, net *sim.Network, id routing.NodeID) *liveness.Node {
	t.Helper()
	ln, ok := net.Node(id).(*liveness.Node)
	if !ok {
		t.Fatalf("node %v is %T, want *liveness.Node", id, net.Node(id))
	}
	return ln
}

func TestHandshakeEstablishesThenGoesQuiet(t *testing.T) {
	net, probes := buildPair(t, liveness.Config{TxInterval: 5 * time.Millisecond, DetectMult: 3}, nil)
	if _, quiesced := net.Run(0); !quiesced {
		t.Fatal("network with established sessions must quiesce (no pending timers)")
	}
	for _, id := range []routing.NodeID{1, 2} {
		peer := routing.NodeID(3 - id)
		p := probes[id]
		if len(p.events) != 1 || !p.events[0].up || p.events[0].peer != peer {
			t.Fatalf("node %v link events = %v, want exactly one LinkUp(%v)", id, p.events, peer)
		}
		ln := livenessNode(t, net, id)
		if st := ln.SessionState(peer); st != liveness.StateUp {
			t.Fatalf("node %v session toward %v is %v, want up", id, peer, st)
		}
		if s := ln.Stats(); s.Established != 1 || s.SessionDowns != 0 || s.FalseDowns != 0 {
			t.Fatalf("node %v stats = %+v, want one clean establishment", id, s)
		}
	}
	// LinkSessions feeds the watchdog diagnostics.
	ls := livenessNode(t, net, 1).LinkSessions()
	if len(ls) != 1 || ls[0].Peer != 2 || ls[0].State != "up" {
		t.Fatalf("LinkSessions() = %+v, want [{2 up ...}]", ls)
	}
}

func TestAnalyticDetectionLatencyWithinWindow(t *testing.T) {
	cfg := liveness.Config{TxInterval: 5 * time.Millisecond, DetectMult: 3}
	net, probes := buildPair(t, cfg, nil)
	net.Run(0)
	failAt := net.Now()
	if !net.FailLink(1, 2) {
		t.Fatal("FailLink refused")
	}
	if _, quiesced := net.Run(0); !quiesced {
		t.Fatal("detection must complete and the network go quiet")
	}
	window := cfg.DetectionTime()
	for _, id := range []routing.NodeID{1, 2} {
		p := probes[id]
		last := p.events[len(p.events)-1]
		if last.up {
			t.Fatalf("node %v never heard the deferred LinkDown: %v", id, p.events)
		}
		delay := last.at - failAt
		if delay <= window-cfg.TxInterval || delay > window {
			t.Fatalf("node %v detection latency %v outside (%v, %v]",
				id, delay, window-cfg.TxInterval, window)
		}
		s := livenessNode(t, net, id).Stats()
		if s.Detections != 1 || s.SessionDowns != 1 || s.FalseDowns != 0 {
			t.Fatalf("node %v stats = %+v, want exactly one analytic detection", id, s)
		}
		if s.DetectMax != delay || s.MeanDetect() != delay {
			t.Fatalf("node %v latency accounting %v/%v, want %v", id, s.DetectMax, s.MeanDetect(), delay)
		}
	}
}

func TestSubDetectionFlapIsAbsorbed(t *testing.T) {
	cfg := liveness.Config{TxInterval: 5 * time.Millisecond, DetectMult: 3}
	net, probes := buildPair(t, cfg, nil)
	net.Run(0)
	established := len(probes[1].events)
	// Fail and restore well inside the 15 ms detect window.
	net.Schedule(0, func() { net.FailLink(1, 2) })
	net.Schedule(4*time.Millisecond, func() { net.RestoreLink(1, 2) })
	if _, quiesced := net.Run(0); !quiesced {
		t.Fatal("absorbed flap must leave the network quiet")
	}
	for _, id := range []routing.NodeID{1, 2} {
		if got := len(probes[id].events); got != established {
			t.Fatalf("node %v heard %d link events after the flap, want %d (flap invisible)",
				id, got, established)
		}
		s := livenessNode(t, net, id).Stats()
		if s.FlapsAbsorbed != 1 || s.Detections != 0 || s.SessionDowns != 0 {
			t.Fatalf("node %v stats = %+v, want one absorbed flap and nothing else", id, s)
		}
	}
	// The absorbed flap must not have disarmed detection: a permanent
	// failure afterwards is still caught.
	failAt := net.Now()
	net.FailLink(1, 2)
	net.Run(0)
	p := probes[1]
	last := p.events[len(p.events)-1]
	if last.up || last.at-failAt > cfg.DetectionTime() {
		t.Fatalf("post-flap failure not detected in window: %v (failed at %v)", p.events, failAt)
	}
}

// dropUpFrames drops a contiguous range of node 1's up-state control
// frames, counting occurrences from 1.
type dropUpFrames struct {
	from, to int // inclusive occurrence range to drop
	seen     int
}

func (d *dropUpFrames) Deliver(from, _ routing.NodeID, msg sim.Message) sim.FaultDecision {
	f, ok := msg.(liveness.ControlFrame)
	if !ok || from != 1 || f.State != liveness.StateUp {
		return sim.FaultDecision{}
	}
	d.seen++
	if d.seen >= d.from && d.seen <= d.to {
		return sim.FaultDecision{Drop: true}
	}
	return sim.FaultDecision{}
}

func TestFrameLossKillsSessionThenRecovers(t *testing.T) {
	// Let node 1's first up frame through (so node 2 expects a schedule),
	// then drop the rest of that schedule: node 2's detect timer fires, a
	// false down is declared, and the re-handshake — now loss-free —
	// re-establishes the session. Sustained loss is churn, not deadlock.
	cfg := liveness.Config{TxInterval: 5 * time.Millisecond, DetectMult: 3}
	net, probes := buildPair(t, cfg, &dropUpFrames{from: 2, to: 4})
	if _, quiesced := net.Run(0); !quiesced {
		t.Fatal("network must recover from the loss-killed session and go quiet")
	}
	n2 := livenessNode(t, net, 2)
	if s := n2.Stats(); s.FalseDowns != 1 {
		t.Fatalf("node 2 stats = %+v, want exactly one false down", s)
	}
	for _, id := range []routing.NodeID{1, 2} {
		peer := routing.NodeID(3 - id)
		if st := livenessNode(t, net, id).SessionState(peer); st != liveness.StateUp {
			t.Fatalf("node %v session is %v after recovery, want up", id, st)
		}
		// The protocol saw the churn: up, down, up again.
		p := probes[id]
		last := p.events[len(p.events)-1]
		if !last.up || len(p.events) < 3 {
			t.Fatalf("node %v link events = %v, want up/down/up churn ending up", id, p.events)
		}
	}
}

// TestCrashDuringActiveSession crashes a router while its BFD sessions
// are still inside the active handshake window, restarts it, and
// requires every protocol to re-converge onto the solver's solution
// with the restarted node's sessions re-established. Run with -race in
// CI: the whole sequence must stay on the simulator's single-threaded
// discipline.
func TestCrashDuringActiveSession(t *testing.T) {
	pol := policy.GaoRexford{TieBreak: policy.TieHashed}
	builders := []struct {
		name  string
		build sim.Builder
	}{
		{"centaur", centaur.New(centaur.Config{Policy: pol})},
		{"bgp", bgp.New(bgp.Config{Policy: pol})},
		{"ospf", ospf.NewWithConfig(ospf.Config{DatabaseExchange: true})},
	}
	g, err := topogen.BRITE(12, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := solver.SolveOpts(g, solver.Options{TieBreak: pol.TieBreak})
	if err != nil {
		t.Fatal(err)
	}
	const victim = routing.NodeID(3)
	cfg := liveness.Config{TxInterval: 2 * time.Millisecond, DetectMult: 3}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			build := liveness.Wrap(sim.Reliable(b.build, sim.ReliableConfig{}), cfg)
			net, err := sim.NewNetwork(sim.Config{
				Topology:  g,
				Build:     build,
				MinDelay:  time.Millisecond,
				MaxDelay:  3 * time.Millisecond,
				DelaySeed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			// 12 ms in, sessions are established (handshakes finish inside
			// ~9 ms on 1–3 ms links) but late establishers are still inside
			// their up-state confirmation schedules: the crash lands on
			// active sessions mid-window.
			net.Schedule(12*time.Millisecond, func() { net.CrashNode(victim) })
			net.Schedule(40*time.Millisecond, func() { net.RestartNode(victim) })
			if _, _, err := net.RunToConvergence(0); err != nil {
				t.Fatalf("no convergence after crash/restart: %v", err)
			}
			if vs := invariant.Check(net, sol); len(vs) != 0 {
				t.Fatalf("post-restart state violates invariant: %v", vs[0])
			}
			// The restarted node's sessions must be re-established (its
			// rebuilt instance carries fresh stats, so check FSM state).
			ln := livenessNode(t, net, victim)
			for _, nb := range g.Neighbors(victim) {
				if st := ln.SessionState(nb.ID); st != liveness.StateUp {
					t.Fatalf("restarted node session toward %v is %v, want up", nb.ID, st)
				}
			}
			total := liveness.Collect(net, g.Nodes())
			if total.Established == 0 || total.SessionDowns == 0 {
				t.Fatalf("run accounting %+v, want establishments and the crash-induced downs", total)
			}
		})
	}
}
