package forward_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"centaur/internal/adversary"
	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/forward"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/prototest"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// differential checks a Tracker against a full re-walk: installed after
// the tracker, it walks every flow with WalkFlow at the end of each
// instant the tracker evaluated and compares the result with the
// tracker's outcomes. A mismatch fails the test with the flow, the
// instant and the events since the tracker's last full walk.
type differential struct {
	t      *testing.T
	net    *sim.Network
	tr     *forward.Tracker
	dirty  bool
	walks  int64    // tracker walks at the last evaluated instant
	since  []string // forwarding-relevant events since the last full walk
	checks int      // evaluated instants compared
}

func (d *differential) observe(ev sim.TraceEvent) {
	switch ev.Kind {
	case sim.TraceRouteChange:
		d.dirty = true
		if ev.HasVia {
			d.since = append(d.since, fmt.Sprintf("route %v→%v via %v→%v", ev.From, ev.To, ev.OldNext, ev.NewNext))
		} else {
			d.since = append(d.since, fmt.Sprintf("route %v→%v", ev.From, ev.To))
		}
	case sim.TraceLinkDown, sim.TraceLinkUp, sim.TraceCrash, sim.TraceRestart:
		d.dirty = true
		d.since = append(d.since, fmt.Sprintf("%v %v %v", ev.Kind, ev.From, ev.To))
	case sim.TraceInstant:
		if d.dirty {
			d.check(ev.At)
		}
	}
}

// check compares the tracker's outcomes after an evaluation at now with
// a full walk.
func (d *differential) check(now time.Duration) {
	d.dirty = false
	d.checks++
	got := d.tr.Outcomes()
	for i, f := range d.tr.Flows() {
		if _, want := forward.WalkFlow(d.net, f); got[i] != want {
			since := d.since
			if len(since) > 40 {
				since = since[len(since)-40:]
			}
			d.t.Fatalf("flow %v at %v: tracker says %v, a full walk says %v; the last %d of %d events since the last full walk:\n  %s",
				f, now, got[i], want, len(since), len(d.since), strings.Join(since, "\n  "))
		}
	}
	if w := d.tr.Walks(); w != d.walks {
		d.walks = w
		d.since = d.since[:0]
	}
}

// TestTrackerMatchesFullWalk runs flap schedules with a node crash and
// restart under each protocol, Centaur again behind the liveness
// detector and the reliable transport, and one hijack, and checks at every
// evaluated instant that the tracker's outcomes, re-walked only when an
// event can move a flow, equal a full walk's. Each run of a protocol
// that reports its next hops must have skipped walks, or it would not
// test the skipping. OSPF reports none, so it must have walked at every
// evaluation; the hijack must leave tracked flows in the attacker's
// data-plane drop.
func TestTrackerMatchesFullWalk(t *testing.T) {
	brite, err := topogen.BRITE(40, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	caida, err := topogen.CAIDALike(50, 9)
	if err != nil {
		t.Fatal(err)
	}
	hijack := adversary.Pick(caida, adversary.Hijack, 1, 4)
	for _, tc := range []struct {
		name  string
		g     *topology.Graph
		build func() sim.Builder
		flaps prototest.Flaps
		extra []forward.Flow
		// noVia: the protocol reports route changes without next hops.
		noVia bool
	}{
		{"centaur", brite, func() sim.Builder { return centaur.New(centaur.Config{}) },
			prototest.Flaps{MaxDown: 3, CrashEvery: 13}, nil, false},
		{"centaur-liveness-transport", brite, func() sim.Builder {
			return liveness.Wrap(sim.Reliable(centaur.New(centaur.Config{}), sim.ReliableConfig{}), liveness.Config{})
		}, prototest.Flaps{MaxDown: 3, CrashEvery: 13}, nil, false},
		{"bgp", brite, func() sim.Builder { return bgp.New(bgp.Config{}) },
			prototest.Flaps{MaxDown: 3, CrashEvery: 13}, nil, false},
		{"bgp-rcn", brite, func() sim.Builder { return bgp.New(bgp.Config{RCN: true}) },
			prototest.Flaps{MaxDown: 1, CrashEvery: 13}, nil, false},
		{"ospf", brite, func() sim.Builder { return ospf.New() },
			prototest.Flaps{MaxDown: 3, CrashEvery: 13}, nil, true},
		{"bgp-hijack", caida, func() sim.Builder {
			return bgp.New(bgp.Config{Adversary: adversary.NewModel(hijack)})
		}, prototest.Flaps{MaxDown: 2}, victimFlows(caida, hijack), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := sim.NewNetwork(sim.Config{Topology: tc.g, Build: tc.build(), DelaySeed: 7})
			if err != nil {
				t.Fatal(err)
			}
			flows := append(forward.SampleFlows(tc.g, 12, 3), tc.extra...)
			tr := forward.NewTracker(net, forward.Config{Flows: flows})
			tr.Install()
			d := &differential{t: t, net: net, tr: tr}
			net.Observe(d.observe)
			tc.flaps.Run(t, net, tc.g)
			imp := tr.Window(net.Now())
			if d.dirty { // Window evaluated the instant the run ended in
				d.check(net.Now())
			}
			if d.checks == 0 || imp.Evals != int64(d.checks) {
				t.Fatalf("compared %d instants, the tracker evaluated %d", d.checks, imp.Evals)
			}
			switch {
			case tc.noVia && tr.Walks() != imp.Evals:
				t.Fatalf("the tracker walked at %d of %d evaluations, want all", tr.Walks(), imp.Evals)
			case !tc.noVia && tr.Walks() >= imp.Evals:
				t.Fatalf("the tracker walked at all %d evaluations: nothing was skipped", imp.Evals)
			case tc.extra != nil && imp.FinalBlackholed == 0:
				t.Fatal("no tracked flow ends in the hijacker's drop")
			}
			t.Logf("%d evaluations, %d walks", imp.Evals, tr.Walks())
		})
	}
}

// victimFlows returns a flow toward each hijacked destination from
// every fifth node, so the attacker's data-plane drop is on tracked
// paths.
func victimFlows(g *topology.Graph, spec adversary.Spec) []forward.Flow {
	var out []forward.Flow
	for _, a := range spec.Attackers {
		v := spec.Victims[a]
		for i, n := range g.Nodes() {
			if i%5 == 0 && n != v {
				out = append(out, forward.Flow{Src: n, Dst: v})
			}
		}
	}
	return out
}

// BenchmarkTrackerObserve times the tracker over a route-change stream
// at a converged BGP network: instants of four route changes each, one
// change in sixteen moving the next hop toward a tracked destination
// and the rest toward other destinations, as most of a flap's changes
// are (ns/event, one event being a route change or an instant's end).
func BenchmarkTrackerObserve(b *testing.B) {
	g, err := topogen.BRITE(60, 2, 3)
	if err != nil {
		b.Fatal(err)
	}
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: bgp.New(bgp.Config{}), DelaySeed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(5_000_000); err != nil {
		b.Fatal(err)
	}
	flows := forward.SampleFlows(g, 8, 1)
	tracked := make(map[routing.NodeID]bool)
	for _, f := range flows {
		tracked[f.Dst] = true
	}
	var other []routing.NodeID
	for _, n := range g.Nodes() {
		if !tracked[n] {
			other = append(other, n)
		}
	}
	var stream []sim.TraceEvent
	for i := 0; len(stream) < 5*1024; i++ {
		ev := sim.TraceEvent{Kind: sim.TraceRouteChange, From: other[i%len(other)], HasVia: true,
			OldNext: routing.NodeID(1 + i%3), NewNext: routing.NodeID(1 + (i+1)%3)}
		if i%16 == 0 {
			ev.To = flows[(i/16)%len(flows)].Dst
		} else {
			ev.To = other[(7*i)%len(other)]
		}
		stream = append(stream, ev)
		if i%4 == 3 {
			stream = append(stream, sim.TraceEvent{Kind: sim.TraceInstant})
		}
	}
	tr := forward.NewTracker(net, forward.Config{Flows: flows})
	now := net.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := stream[i%len(stream)]
		if ev.Kind == sim.TraceInstant {
			now += time.Microsecond
			ev.At = now
		}
		tr.Observe(ev)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
