package sim

import (
	"reflect"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
)

// observedRun builds a provNode network on a small BRITE graph, lets
// subscribe attach subscribers before anything runs, then fails and
// restores one link, running to quiescence after each.
func observedRun(t *testing.T, subscribe func(*Network)) *Network {
	t.Helper()
	g, err := topogen.BRITE(20, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Config{
		Topology:  g,
		Build:     func(env Env) Protocol { return &provNode{} },
		DelaySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	subscribe(net)
	for _, step := range []func(a, b routing.NodeID) bool{nil, net.FailLink, net.RestoreLink} {
		if step != nil && !step(1, 2) {
			t.Fatal("link 1-2 was not in the expected state")
		}
		if _, ok := net.Run(100_000); !ok {
			t.Fatal("run did not quiesce")
		}
	}
	return net
}

// TestObserveOrderAndNestedEmit pins the subscriber contract: every
// subscriber sees one stream in subscription order, and an event a
// subscriber emits reaches every subscriber right after the event that
// triggered it, parented like that event.
func TestObserveOrderAndNestedEmit(t *testing.T) {
	var order []int
	var first, last []TraceEvent
	observedRun(t, func(net *Network) {
		net.Observe(func(ev TraceEvent) {
			order = append(order, 1)
			first = append(first, ev)
		})
		net.Observe(func(ev TraceEvent) {
			order = append(order, 2)
			if ev.Kind == TraceRouteChange {
				net.Emit("audit", ev.From, ev.To)
			}
		})
		net.Observe(func(ev TraceEvent) {
			order = append(order, 3)
			last = append(last, ev)
		})
	})
	for i, s := range order {
		if s != i%3+1 {
			t.Fatalf("call %d went to subscriber %d, want %d", i, s, i%3+1)
		}
	}
	if !reflect.DeepEqual(first, last) {
		t.Fatal("first and last subscriber saw different streams")
	}
	routes := 0
	for i, ev := range first {
		if ev.Kind != TraceRouteChange {
			continue
		}
		routes++
		if i+1 == len(first) {
			t.Fatal("route event is the last event; its emitted note is missing")
		}
		bad := first[i+1]
		if bad.Kind != TraceNote || bad.Note != "audit" || bad.From != ev.From || bad.To != ev.To {
			t.Fatalf("event after route %+v is %+v, want its note", ev, bad)
		}
		if bad.Span != ev.Span+1 || bad.Parent != ev.Parent || bad.Depth != ev.Depth {
			t.Fatalf("note %+v not parented like route %+v", bad, ev)
		}
	}
	if routes == 0 {
		t.Fatal("the run reported no route changes")
	}
}

// TestTraceInstantOncePerInstant checks that the end of every processed
// instant but the last of each run is published once, without a span,
// after every event of that instant and before any later one.
func TestTraceInstantOncePerInstant(t *testing.T) {
	var events []TraceEvent
	observedRun(t, func(net *Network) {
		net.Observe(func(ev TraceEvent) { events = append(events, ev) })
	})
	// Split the stream into its runs at the link transitions, which
	// are driven from outside Run.
	var runs [][]TraceEvent
	for _, ev := range events {
		if ev.Kind == TraceLinkDown || ev.Kind == TraceLinkUp {
			runs = append(runs, nil)
		}
		if len(runs) > 0 {
			runs[len(runs)-1] = append(runs[len(runs)-1], ev)
		}
	}
	if len(runs) != 2 {
		t.Fatalf("found %d link-driven runs, want 2", len(runs))
	}
	total := 0
	for r, run := range runs {
		var times, instants []time.Duration
		for i, ev := range run {
			if ev.Kind != TraceInstant {
				if len(times) == 0 || times[len(times)-1] != ev.At {
					times = append(times, ev.At)
				}
				continue
			}
			if ev.Span != 0 || ev.Parent != 0 || ev.Depth != 0 {
				t.Fatalf("run %d: instant %+v carries a span", r, ev)
			}
			if i+1 < len(run) && run[i+1].At <= ev.At {
				t.Fatalf("run %d: event %+v follows the end of its instant %v", r, run[i+1], ev.At)
			}
			instants = append(instants, ev.At)
		}
		want := times[:len(times)-1]
		if len(instants) != len(want) || len(want) > 0 && !reflect.DeepEqual(instants, want) {
			t.Fatalf("run %d: instants %v, want every processed instant but the last %v", r, instants, want)
		}
		total += len(instants)
	}
	if total == 0 {
		t.Fatal("no run advanced the clock")
	}
}

// TestObserveChangesNothing runs the same network with and without a
// subscriber: the accounting must not move.
func TestObserveChangesNothing(t *testing.T) {
	type result struct {
		st      Stats
		changes []time.Duration
	}
	measure := func(net *Network) result {
		r := result{st: net.Stats()}
		net.LastRouteChanges(func(dest routing.NodeID, at time.Duration) {
			r.changes = append(r.changes, time.Duration(dest), at)
		})
		return r
	}
	bare := measure(observedRun(t, func(*Network) {}))
	seen := 0
	watched := measure(observedRun(t, func(net *Network) {
		net.Observe(func(TraceEvent) { seen++ })
	}))
	if seen == 0 {
		t.Fatal("the subscriber saw nothing")
	}
	if bare.st.Events == 0 || len(bare.changes) == 0 {
		t.Fatal("the run did nothing")
	}
	if !reflect.DeepEqual(bare, watched) {
		t.Fatalf("a subscriber changed the run:\nbare    %+v\nwatched %+v", bare, watched)
	}
}
