// Package faults turns a deterministic, seedable fault Plan into
// concrete injected failures on a sim.Network: per-message loss,
// duplication and delivery jitter (via the simulator's delivery-path
// Injector hook), scheduled link-flap storms, node crash/restart cycles
// with full protocol-state wipe, and a bisection partition.
//
// Determinism contract: for a fixed (Plan, topology) pair, Attach draws
// every scheduled fault (which link flaps when, which node crashes
// when) from rand.NewSource(Plan.Seed) before the simulation runs, and
// every per-message decision from an independent
// rand.NewSource(Plan.Seed+1) stream consumed in the simulator's
// deterministic event order. Two runs with the same seeds therefore
// inject byte-identical fault sequences — the property the reliability
// experiments' worker-invariance guarantee rests on.
//
// Overlapping faults compose best-effort: a flap storm never takes down
// a link that is already down (FailLink refuses), a restore never
// brings up a link whose endpoint is crashed (RestoreLink refuses), and
// RestartNode re-ups every adjacency of the restarted node, superseding
// any outage that was holding one down. Every injected outage schedules
// its own restore, so a quiesced network is back to full topology —
// which is what lets post-quiescence invariant checks compare against
// the full-topology solver ground truth.
package faults

import (
	"math/rand"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/telemetry"
	"centaur/internal/topology"
)

// Plan is a declarative, seedable fault scenario. The zero value
// injects nothing (Active reports false).
type Plan struct {
	// Seed derives both deterministic random streams: scheduled faults
	// from Seed, per-message decisions from Seed+1.
	Seed int64

	// Loss is the probability each delivered message is dropped.
	Loss float64
	// Dup is the probability each delivered message is delivered twice,
	// the copy after an extra reordering delay.
	Dup float64
	// Jitter is the maximum extra delivery delay; each message gets a
	// uniform draw from [0, Jitter]. Zero disables jitter.
	Jitter time.Duration

	// Churn is the link-flap rate in flaps per simulated second; the
	// round(Churn·Window) flap instants and their links are drawn
	// uniformly over the Window and the topology's edges.
	Churn float64
	// FlapDown is how long each flapped link stays down. Default 20ms.
	FlapDown time.Duration

	// Crashes is the number of node crash/restart cycles, at uniform
	// instants over the Window on uniformly drawn nodes. A crash wipes
	// the node's protocol state; the rebuilt instance rejoins cold.
	Crashes int
	// CrashDown is how long a crashed node stays down. Default 50ms.
	CrashDown time.Duration

	// Window is the horizon over which flaps, crashes, and the partition
	// are spread, measured from the instant Attach runs. Default 1s.
	Window time.Duration

	// Partition, when set, bisects the node set (lower half by ID vs.
	// upper half) at PartitionAt by failing every crossing link, healing
	// them PartitionHeal later. Defaults: Window/4 into the window,
	// lasting Window/4.
	Partition     bool
	PartitionAt   time.Duration
	PartitionHeal time.Duration
}

// Active reports whether the plan injects any fault at all. Harnesses
// use it to skip Attach — and keep checkpoint/fork eligibility — for
// fault-free runs.
func (p Plan) Active() bool {
	return p.Loss > 0 || p.Dup > 0 || p.Jitter > 0 ||
		p.Churn > 0 || p.Crashes > 0 || p.Partition
}

// withDefaults fills the zero durations.
func (p Plan) withDefaults() Plan {
	if p.Window <= 0 {
		p.Window = time.Second
	}
	if p.FlapDown <= 0 {
		p.FlapDown = 20 * time.Millisecond
	}
	if p.CrashDown <= 0 {
		p.CrashDown = 50 * time.Millisecond
	}
	if p.PartitionAt <= 0 {
		p.PartitionAt = p.Window / 4
	}
	if p.PartitionHeal <= 0 {
		p.PartitionHeal = p.Window / 4
	}
	return p
}

// Injector executes a Plan against one network. It implements
// sim.Injector for the per-message faults; the scheduled faults run as
// simulator events queued by Attach. Not safe for use by more than one
// network: both random streams are positional.
type Injector struct {
	plan Plan
	rng  *rand.Rand // per-message decisions, stream Seed+1

	cLoss, cDup, cJitter       telemetry.Counter
	cFlaps, cCrashes, cRestart telemetry.Counter
	cCuts                      telemetry.Counter
}

var _ sim.Injector = (*Injector)(nil)

// Attach installs plan on net: it registers the per-message injector
// (when the plan has message-level faults) and queues every scheduled
// fault — flap storms, crash/restart cycles, the partition — as
// simulator events, each with its matching restore. reg may be nil;
// otherwise injected faults increment the faults.* counters. Call once,
// before the network runs. Networks that need crash/restart cycles must
// have been built with a Config.Build (forked networks cannot restart
// nodes — but forks cannot be taken under faults anyway, see
// sim.ErrFaultsActive).
func Attach(net *sim.Network, plan Plan, reg *telemetry.Registry) *Injector {
	plan = plan.withDefaults()
	inj := &Injector{
		plan:     plan,
		rng:      rand.New(rand.NewSource(plan.Seed + 1)),
		cLoss:    reg.Counter("faults.loss_injected"),
		cDup:     reg.Counter("faults.dup_injected"),
		cJitter:  reg.Counter("faults.jitter_injected"),
		cFlaps:   reg.Counter("faults.flaps"),
		cCrashes: reg.Counter("faults.crashes"),
		cRestart: reg.Counter("faults.restarts"),
		cCuts:    reg.Counter("faults.partition_cuts"),
	}
	if plan.Loss > 0 || plan.Dup > 0 || plan.Jitter > 0 {
		net.SetInjector(inj)
	}

	sched := rand.New(rand.NewSource(plan.Seed))
	topo := net.Topology()
	edges := topo.Edges()
	nodes := topo.Nodes()

	// Causal provenance (the simulator assigns spans to every event)
	// needs no help from this package: the top-level Schedule calls below run with no active
	// cause, so each FailLink/CrashNode traces as its own root span, and
	// the nested restore Schedules capture the cause register the outage
	// just set — a flap's link-up parents to its link-down, a restart to
	// its crash — purely through the simulator's cause inheritance.
	flapCount := int(plan.Churn*plan.Window.Seconds() + 0.5)
	for i := 0; i < flapCount && len(edges) > 0; i++ {
		e := edges[sched.Intn(len(edges))]
		at := time.Duration(sched.Int63n(int64(plan.Window)))
		net.Schedule(at, func() {
			if !net.FailLink(e.A, e.B) {
				return // already down; its restore is someone else's
			}
			inj.cFlaps.Inc()
			net.Schedule(plan.FlapDown, func() { net.RestoreLink(e.A, e.B) })
		})
	}

	for i := 0; i < plan.Crashes && len(nodes) > 0; i++ {
		id := nodes[sched.Intn(len(nodes))]
		at := time.Duration(sched.Int63n(int64(plan.Window)))
		net.Schedule(at, func() {
			if !net.CrashNode(id) {
				return // already crashed; the earlier cycle restarts it
			}
			inj.cCrashes.Inc()
			net.Schedule(plan.CrashDown, func() {
				if net.RestartNode(id) {
					inj.cRestart.Inc()
				}
			})
		})
	}

	if plan.Partition && len(nodes) > 1 {
		lower := make(map[routing.NodeID]bool, len(nodes)/2)
		for _, id := range nodes[:len(nodes)/2] {
			lower[id] = true
		}
		var crossing []topology.Edge
		for _, e := range edges {
			if lower[e.A] != lower[e.B] {
				crossing = append(crossing, e)
			}
		}
		net.Schedule(plan.PartitionAt, func() {
			for _, e := range crossing {
				if net.FailLink(e.A, e.B) {
					inj.cCuts.Inc()
				}
			}
		})
		net.Schedule(plan.PartitionAt+plan.PartitionHeal, func() {
			for _, e := range crossing {
				net.RestoreLink(e.A, e.B)
			}
		})
	}
	return inj
}

// drawJitter returns a uniform draw from [0, max].
func (inj *Injector) drawJitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(inj.rng.Int63n(int64(max) + 1))
}

// Deliver implements sim.Injector: one decision per in-flight message,
// drawn in the simulator's deterministic delivery order.
func (inj *Injector) Deliver(from, to routing.NodeID, msg sim.Message) sim.FaultDecision {
	var dec sim.FaultDecision
	p := inj.plan
	if p.Loss > 0 && inj.rng.Float64() < p.Loss {
		dec.Drop = true
		inj.cLoss.Inc()
	}
	if p.Dup > 0 && inj.rng.Float64() < p.Dup {
		dec.Duplicate = true
		// The duplicate trails the original by an extra reordering delay,
		// at least a couple of milliseconds even in no-jitter plans so the
		// receiver genuinely observes out-of-order arrival.
		spread := p.Jitter
		if spread < 2*time.Millisecond {
			spread = 2 * time.Millisecond
		}
		dec.DupJitter = inj.drawJitter(spread)
		inj.cDup.Inc()
	}
	if p.Jitter > 0 {
		if j := inj.drawJitter(p.Jitter); j > 0 {
			dec.Jitter = j
			inj.cJitter.Inc()
		}
	}
	return dec
}
