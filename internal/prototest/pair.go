// Package prototest holds what the protocol packages' tests share. Only
// _test.go files import it.
//
// Pair is the harness behind the model-based tests (DESIGN.md invariant
// 16): it runs a protocol implementation and its reference model side
// by side inside a real simulation and fails the test at the first
// event after which the two did not do the same things. Flaps is the
// failure schedule those tests drive, StubEnv the environment of the
// allocation pins, FlipBench the loop of the layer benchmarks.
package prototest

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
)

// emission is one thing a node did in reaction to an event: a message
// sent to a neighbor or a reported route change.
type emission struct {
	to            routing.NodeID // Send
	msg           sim.Message
	dest, old, nw routing.NodeID // RouteChanged / RouteChangedVia
	via           bool
}

func (e emission) String() string {
	switch {
	case e.to != routing.None:
		return fmt.Sprintf("send %v %+v", e.to, e.msg)
	case e.via:
		return fmt.Sprintf("route %v: via %v -> %v", e.dest, e.old, e.nw)
	}
	return fmt.Sprintf("route %v", e.dest)
}

// capEnv records what a node emits and the timers it arms. The real
// node's env also forwards to the simulator; the model's only records.
type capEnv struct {
	sim.Env
	pair    *Pair
	forward bool
	out     []emission
	timers  []func()
}

func (e *capEnv) Send(to routing.NodeID, msg sim.Message) {
	e.out = append(e.out, emission{to: to, msg: msg})
	if e.forward {
		e.Env.Send(to, msg)
	}
}

func (e *capEnv) RouteChanged(dest routing.NodeID) {
	e.out = append(e.out, emission{dest: dest})
	if e.forward {
		e.Env.RouteChanged(dest)
	}
}

func (e *capEnv) RouteChangedVia(dest, oldNext, newNext routing.NodeID) {
	e.out = append(e.out, emission{dest: dest, old: oldNext, nw: newNext, via: true})
	if e.forward {
		e.Env.RouteChangedVia(dest, oldNext, newNext)
	}
}

// After pairs the k-th timer of the real node with the k-th timer of
// the model: the simulator fires the real one, and the pair runs both.
func (e *capEnv) After(d time.Duration, fn func()) {
	k := len(e.timers)
	e.timers = append(e.timers, fn)
	if e.forward {
		e.Env.After(d, func() { e.pair.step(fmt.Sprintf("timer %d", k), func(i int) { e.pair.envs[i].timers[k]() }) })
	}
}

// Pair is a sim.Protocol that feeds every event the simulator delivers
// — the recorded event sequence of a real run — to a real node and to
// its reference model, and requires identical emissions (every Send,
// After and route change, in order) after each one.
type Pair struct {
	t        testing.TB
	self     routing.NodeID
	protos   [2]sim.Protocol // real, model
	envs     [2]*capEnv
	sameMsg  func(a, b sim.Message) bool
	compared *int
}

// NewPair builds the pair for one node. sameMsg compares two sent messages;
// every emission compared is counted into *compared, so a test can
// tell that it compared something.
func NewPair(t testing.TB, env sim.Env, real, model sim.Builder, sameMsg func(a, b sim.Message) bool, compared *int) *Pair {
	p := &Pair{t: t, self: env.Self(), sameMsg: sameMsg, compared: compared}
	p.envs = [2]*capEnv{{Env: env, pair: p, forward: true}, {Env: env, pair: p}}
	p.protos = [2]sim.Protocol{real(p.envs[0]), model(p.envs[1])}
	return p
}

// Real returns the real node, Model the reference model.
func (p *Pair) Real() sim.Protocol  { return p.protos[0] }
func (p *Pair) Model() sim.Protocol { return p.protos[1] }

func (p *Pair) same(a, b emission) bool {
	if a.to != b.to || a.dest != b.dest || a.old != b.old || a.nw != b.nw || a.via != b.via {
		return false
	}
	return a.to == routing.None || p.sameMsg(a.msg, b.msg)
}

func (p *Pair) step(what string, run func(i int)) {
	for i, e := range p.envs {
		e.out = e.out[:0]
		run(i)
	}
	got, want := p.envs[0].out, p.envs[1].out
	*p.compared += len(want)
	if !slices.EqualFunc(got, want, p.same) || len(p.envs[0].timers) != len(p.envs[1].timers) {
		p.t.Fatalf("node %v, %s: emitted (%d timers)\n  %v\nmodel emitted (%d timers)\n  %v",
			p.self, what, len(p.envs[0].timers), got, len(p.envs[1].timers), want)
	}
}

// Start implements sim.Protocol.
func (p *Pair) Start(env sim.Env) {
	p.step("start", func(i int) { p.envs[i].Env = env; p.protos[i].Start(p.envs[i]) })
}

// Handle implements sim.Protocol.
func (p *Pair) Handle(from routing.NodeID, msg sim.Message) {
	p.step(fmt.Sprintf("handle from %v %+v", from, msg), func(i int) { p.protos[i].Handle(from, msg) })
}

// LinkDown implements sim.Protocol.
func (p *Pair) LinkDown(b routing.NodeID) {
	p.step(fmt.Sprintf("link down %v", b), func(i int) { p.protos[i].LinkDown(b) })
}

// LinkUp implements sim.Protocol.
func (p *Pair) LinkUp(b routing.NodeID) {
	p.step(fmt.Sprintf("link up %v", b), func(i int) { p.protos[i].LinkUp(b) })
}
