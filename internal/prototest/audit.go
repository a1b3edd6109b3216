package prototest

import (
	"fmt"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
)

// Audit wraps build so that check runs on a node after every event the
// node handles — its start, each message, each link change and each
// timer — and fails t with the first error check returns. It is how a
// test holds a protocol's state to a definition at every instant of a
// run, not only at quiescence. Every check run is counted into *audits,
// so a test can tell that it checked something.
func Audit(t testing.TB, build sim.Builder, check func(sim.Protocol) error, audits *int) sim.Builder {
	return func(env sim.Env) sim.Protocol {
		a := &audited{t: t, self: env.Self(), check: check, audits: audits}
		a.env = &auditEnv{Env: env, a: a}
		a.p = build(a.env)
		return a
	}
}

// audited is the wrapper Audit builds around one node.
type audited struct {
	t      testing.TB
	self   routing.NodeID
	p      sim.Protocol
	env    *auditEnv
	check  func(sim.Protocol) error
	audits *int
}

func (a *audited) audit(what string) {
	*a.audits++
	if err := a.check(a.p); err != nil {
		a.t.Fatalf("node %v, after %s: %v", a.self, what, err)
	}
}

// auditEnv runs the audit after each timer the node arms.
type auditEnv struct {
	sim.Env
	a *audited
}

func (e *auditEnv) After(d time.Duration, fn func()) {
	e.Env.After(d, func() { fn(); e.a.audit("a timer") })
}

// UnwrapEnv implements sim.EnvUnwrapper.
func (e *auditEnv) UnwrapEnv() sim.Env { return e.Env }

// Start implements sim.Protocol.
func (a *audited) Start(env sim.Env) {
	a.env.Env = env
	a.p.Start(a.env)
	a.audit("start")
}

// Handle implements sim.Protocol.
func (a *audited) Handle(from routing.NodeID, msg sim.Message) {
	a.p.Handle(from, msg)
	a.audit(fmt.Sprintf("a message from %v", from))
}

// LinkDown implements sim.Protocol.
func (a *audited) LinkDown(b routing.NodeID) {
	a.p.LinkDown(b)
	a.audit(fmt.Sprintf("link down %v", b))
}

// LinkUp implements sim.Protocol.
func (a *audited) LinkUp(b routing.NodeID) {
	a.p.LinkUp(b)
	a.audit(fmt.Sprintf("link up %v", b))
}
