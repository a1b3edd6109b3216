package sim

import (
	"testing"

	"centaur/internal/routing"
	"centaur/internal/topogen"
)

// plFPNoter is the optional Env capability protocols use to report a
// Bloom Permission List false positive.
type plFPNoter interface{ NotePLFalsePositive(routing.NodeID) }

func TestNotePLFalsePositiveCountsAndTraces(t *testing.T) {
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
	noter, ok := nodes[1].env.(plFPNoter)
	if !ok {
		t.Fatal("nodeEnv must expose NotePLFalsePositive")
	}
	noter.NotePLFalsePositive(7)
	noter.NotePLFalsePositive(9)
	if got := net.Stats().PLFalsePositives; got != 2 {
		t.Fatalf("PLFalsePositives = %d, want 2", got)
	}
	found := 0
	for _, ev := range events {
		if ev.Kind == TracePLFalsePositive {
			found++
			if ev.From != 1 {
				t.Fatalf("pl-fp event from %v, want node 1", ev.From)
			}
		}
	}
	if found != 2 {
		t.Fatalf("traced %d pl-fp events, want 2", found)
	}
	if TracePLFalsePositive.String() != "pl-fp" {
		t.Fatalf("trace kind renders %q", TracePLFalsePositive.String())
	}
}

func TestRelEnvForwardsPLFalsePositive(t *testing.T) {
	// The reliable-transport adapter interposes its own Env; the
	// accounting must still reach the network through BaseEnv, which is
	// how protocols (Centaur's Bloom Permission Lists) report it.
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
	noter, ok := BaseEnv(envs[0]).(plFPNoter)
	if !ok {
		t.Fatal("BaseEnv of relEnv must reach the network's NotePLFalsePositive")
	}
	noter.NotePLFalsePositive(3)
	if got := net.Stats().PLFalsePositives; got != 1 {
		t.Fatalf("PLFalsePositives = %d, want 1", got)
	}
}
