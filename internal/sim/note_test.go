package sim

import (
	"testing"

	"centaur/internal/routing"
	"centaur/internal/topogen"
)

func TestEmitNoteCountsAndTraces(t *testing.T) {
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
		DelaySeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Observe(func(ev TraceEvent) { events = append(events, ev) })
	if _, ok := net.Run(0); !ok {
		t.Fatal("startup should quiesce")
	}
	nodes[1].env.Emit("a", 7)
	nodes[1].env.Emit("a", 9)
	net.Emit("b", 2, routing.None)
	if a, b, c := net.Notes("a"), net.Notes("b"), net.Notes("c"); a != 2 || b != 1 || c != 0 {
		t.Fatalf("Notes a, b, c = %d, %d, %d; want 2, 1, 0", a, b, c)
	}
	var notes []TraceEvent
	for _, ev := range events {
		if ev.Kind == TraceNote {
			notes = append(notes, ev)
		}
	}
	if len(notes) != 3 || notes[0].Note != "a" || notes[0].From != 1 || notes[0].To != 7 ||
		notes[2].Note != "b" || notes[2].From != 2 {
		t.Fatalf("traced notes %+v", notes)
	}
	for _, ev := range notes {
		// Between runs there is no active cause: every note is a root.
		if ev.Span == 0 || ev.Parent != 0 || ev.Depth != 0 || ev.Msg != nil {
			t.Fatalf("note %+v: want a fresh span, no parent, depth 0, no message", ev)
		}
	}
	net.ResetStats()
	if got := net.Notes("a"); got != 0 {
		t.Fatalf("Notes(a) after ResetStats = %d, want 0", got)
	}
}

func TestRelEnvForwardsEmit(t *testing.T) {
	// The reliable-transport adapter interposes its own Env, which
	// forwards Emit by embedding: the note still reaches the network.
	g, err := topogen.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	var envs []Env
	net, err := NewNetwork(Config{
		Topology: g,
		Build: Reliable(func(env Env) Protocol {
			envs = append(envs, env)
			return &echoNode{}
		}, ReliableConfig{}),
		DelaySeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := net.Run(0); !ok {
		t.Fatal("startup should quiesce")
	}
	if _, ok := envs[0].(*relEnv); !ok {
		t.Fatalf("protocol env is %T, want the adapter's relEnv", envs[0])
	}
	envs[0].Emit("a", 3)
	if got := net.Notes("a"); got != 1 {
		t.Fatalf("Notes(a) = %d, want 1", got)
	}
}
