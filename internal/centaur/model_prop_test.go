package centaur

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"centaur/internal/pgraph"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// emission is one thing a node did in reaction to an event: an update
// sent to a neighbor or a reported route change.
type emission struct {
	to            routing.NodeID // Send
	upd           Update
	dest, old, nw routing.NodeID // RouteChangedVia
}

func (e emission) String() string {
	if e.to != routing.None {
		return fmt.Sprintf("send %v %+v", e.to, e.upd)
	}
	return fmt.Sprintf("route %v: via %v -> %v", e.dest, e.old, e.nw)
}

func sameEmission(a, b emission) bool {
	return a.to == b.to && a.dest == b.dest && a.old == b.old && a.nw == b.nw &&
		slices.Equal(a.upd.Delta.Removes, b.upd.Delta.Removes) &&
		slices.Equal(a.upd.FailedLinks, b.upd.FailedLinks) &&
		slices.EqualFunc(a.upd.Delta.Adds, b.upd.Delta.Adds, pgraph.LinkInfo.Equal)
}

// capEnv records what a node emits and the timers it arms. The real
// Node's env also forwards to the simulator; the model's only records.
type capEnv struct {
	sim.Env
	pair    *pairNode
	forward bool
	out     []emission
	timers  []func()
}

func (e *capEnv) Send(to routing.NodeID, msg sim.Message) {
	e.out = append(e.out, emission{to: to, upd: msg.(Update)})
	if e.forward {
		e.Env.Send(to, msg)
	}
}

func (e *capEnv) RouteChangedVia(dest, oldNext, newNext routing.NodeID) {
	e.out = append(e.out, emission{dest: dest, old: oldNext, nw: newNext})
	if e.forward {
		sim.RouteChangedVia(e.Env, dest, oldNext, newNext)
	}
}

// After pairs the k-th timer of the real Node with the k-th timer of
// the model: the simulator fires the real one, and the pair runs both.
func (e *capEnv) After(d time.Duration, fn func()) {
	k := len(e.timers)
	e.timers = append(e.timers, fn)
	if e.forward {
		e.Env.After(d, func() { e.pair.step(fmt.Sprintf("timer %d", k), func(c *capEnv) { c.timers[k]() }) })
	}
}

// pairNode is a sim.Protocol that feeds every event the simulator
// delivers — the recorded update sequence of a real run — to the real
// Node and to the reference model, and requires identical emissions
// after each one.
type pairNode struct {
	t        *testing.T
	real     *Node
	ref      *refNode
	envs     [2]*capEnv // real, model
	compared *int
}

func (p *pairNode) step(what string, run func(*capEnv)) {
	for _, e := range p.envs {
		e.out = e.out[:0]
		run(e)
	}
	got, want := p.envs[0].out, p.envs[1].out
	*p.compared += len(want)
	if !slices.EqualFunc(got, want, sameEmission) || len(p.envs[0].timers) != len(p.envs[1].timers) {
		p.t.Fatalf("node %v, %s: emitted\n  %v\nmodel emitted\n  %v", p.real.self, what, got, want)
	}
}

func (p *pairNode) protocolOf(e *capEnv) sim.Protocol {
	if e.forward {
		return p.real
	}
	return p.ref
}

func (p *pairNode) Start(env sim.Env) {
	p.step("start", func(e *capEnv) { e.Env = env; p.protocolOf(e).Start(e) })
}

func (p *pairNode) Handle(from routing.NodeID, msg sim.Message) {
	p.step(fmt.Sprintf("handle from %v %+v", from, msg), func(e *capEnv) { p.protocolOf(e).Handle(from, msg) })
}

func (p *pairNode) LinkDown(b routing.NodeID) {
	p.step(fmt.Sprintf("link down %v", b), func(e *capEnv) { p.protocolOf(e).LinkDown(b) })
}

func (p *pairNode) LinkUp(b routing.NodeID) {
	p.step(fmt.Sprintf("link up %v", b), func(e *capEnv) { p.protocolOf(e).LinkUp(b) })
}

// TestNodeMatchesModel runs flap sequences through networks of
// pairNodes: cold start, single and overlapping failures, restores
// inside and outside the mask TTL.
func TestNodeMatchesModel(t *testing.T) {
	brite, err := topogen.BRITE(50, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	caida, err := topogen.CAIDALike(60, 9) // has sibling adjacencies
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *topology.Graph
		cfg  Config
	}{
		{"brite/incremental", brite, Config{Incremental: true, MaskTTL: 30 * time.Millisecond}},
		{"caida/incremental", caida, Config{Incremental: true, Policy: overridePolicy()}},
		{"brite/full", brite, Config{MaskTTL: 30 * time.Millisecond}},
		{"caida/no-root-cause", caida, Config{Incremental: true, DisableRootCause: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compared := 0
			net, err := sim.NewNetwork(sim.Config{
				Topology: tc.g,
				Build: func(env sim.Env) sim.Protocol {
					p := &pairNode{t: t, compared: &compared}
					p.envs = [2]*capEnv{{Env: env, pair: p, forward: true}, {Env: env, pair: p}}
					p.real = New(tc.cfg)(p.envs[0]).(*Node)
					p.ref = newRefNode(tc.cfg, p.envs[1])
					return p
				},
				DelaySeed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if _, _, err := net.RunToConvergence(50_000_000); err != nil {
					t.Fatal(err)
				}
			}
			run()
			rng := rand.New(rand.NewSource(5))
			edges := tc.g.Edges()
			for round := 0; round < 25; round++ {
				var down []topology.Edge
				for k := 1 + rng.Intn(3); k > 0; k-- {
					e := edges[rng.Intn(len(edges))]
					if net.LinkIsUp(e.A, e.B) {
						net.FailLink(e.A, e.B)
						down = append(down, e)
					}
				}
				if rng.Intn(2) == 0 {
					run() // restore after the masks have expired
				} else {
					net.Run(int64(rng.Intn(300))) // restore mid-convergence, masks still up
				}
				for _, e := range down {
					net.RestoreLink(e.A, e.B)
				}
				run()
			}
			if compared == 0 {
				t.Fatal("nothing was compared")
			}
		})
	}
}
