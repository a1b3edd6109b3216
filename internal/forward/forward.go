// Package forward adds a flow-level data plane to the simulator: a set
// of deterministic src→dst traffic aggregates that are walked
// hop-by-hop through the live per-node RIBs whenever the control plane
// changes something a walk reads, and classified as delivered,
// blackholed, looping, or valley-violating. Integrating each outcome
// over simulated time turns the control-plane event stream into the
// user-visible loss metrics the reliability experiments report —
// blackhole-seconds, transient-loop packet equivalents,
// valley-violating deliveries — instead of only convergence time.
//
// The walker reads whatever RIB the node's protocol exposes after
// transport/liveness wrappers are peeled: a NextHopTo/NextHop pointer
// (ospf, and the allocation-free fast paths on bgp/centaur) or a full
// BestPath. Classification is piecewise-constant between control-plane
// events, so exact time integrals come from re-evaluating lazily: a
// Tracker marks itself dirty on any route/link/node trace event and
// evaluates once per simulated instant at which the network was dirty,
// at the instant's end in the simulator's event stream. It re-walks the
// flows only when one of those events could move one: a link or node
// event, a route change without next hops, or a next-hop change toward
// a flow's destination (see Tracker.observe). Runs without a Tracker
// installed are byte-identical to runs before this package existed.
package forward

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"centaur/internal/policy"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// Flow is one unit traffic aggregate from Src to Dst.
type Flow struct {
	Src routing.NodeID
	Dst routing.NodeID
}

// String renders the flow for diagnostics.
func (f Flow) String() string { return fmt.Sprintf("%v→%v", f.Src, f.Dst) }

// SampleFlows draws n distinct src≠dst flows from g's nodes, seeded —
// the same (graph, n, seed) always yields the same flow set, at any
// worker count. Graphs too small to host n distinct pairs yield fewer.
func SampleFlows(g *topology.Graph, n int, seed int64) []Flow {
	nodes := g.Nodes()
	if len(nodes) < 2 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Flow]bool, n)
	out := make([]Flow, 0, n)
	for attempts := 0; len(out) < n && attempts < 50*n; attempts++ {
		f := Flow{Src: nodes[rng.Intn(len(nodes))], Dst: nodes[rng.Intn(len(nodes))]}
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Outcome classifies where a flow's packets go right now.
type Outcome uint8

const (
	// Delivered: the hop-by-hop walk reaches Dst on live links, valley-free.
	Delivered Outcome = iota
	// Blackholed: the walk dead-ends — no next hop, a down link the RIB
	// still points across, a crashed node, or a crashed destination.
	Blackholed
	// Looping: the walk exceeds the hop budget (a forwarding loop during
	// convergence — e.g. two nodes pointing at each other).
	Looping
	// ValleyDelivered: the walk reaches Dst but crosses a Gao–Rexford
	// valley (traffic a policy-compliant network would never have
	// carried; delivered, but an export-policy leak).
	ValleyDelivered
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Blackholed:
		return "blackholed"
	case Looping:
		return "looping"
	case ValleyDelivered:
		return "valley-delivered"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// The RIB views the walker can read, checked in cheap-first order.
// NextHopForward is the allocation-free fast path bgp and centaur
// expose alongside BestPath.
type (
	nextHopForward interface {
		NextHopTo(dest routing.NodeID) routing.NodeID
	}
	nextHopRIB interface {
		NextHop(dest routing.NodeID) routing.NodeID
	}
	pathRIB interface {
		BestPath(dest routing.NodeID) routing.Path
	}
)

// nextHopOf reads cur's selected next hop toward dst, or routing.None.
func nextHopOf(net *sim.Network, cur, dst routing.NodeID) routing.NodeID {
	switch rib := sim.Unwrap(net.Node(cur)).(type) {
	case nextHopForward:
		return rib.NextHopTo(dst)
	case nextHopRIB:
		return rib.NextHop(dst)
	case pathRIB:
		if p := rib.BestPath(dst); len(p) >= 2 {
			return p[1]
		}
		return routing.None
	default:
		return routing.None
	}
}

// WalkFlow forwards f hop-by-hop through the live RIBs: at each node it
// reads the selected next hop and requires the node up and the link to
// the next hop up. A delivered flow is classified by replaying the
// Gao–Rexford export chain over the edges actually traversed
// (policy.ExportCompliant) — the phase walk previously used here
// misflagged legal sibling-laundered deliveries, since a sibling-learned
// route may legally climb to peers and providers again. It returns the
// traversed path (ending at the dead-end node for blackholes, at the
// budget cutoff for loops) and the outcome.
func WalkFlow(net *sim.Network, f Flow) (routing.Path, Outcome) {
	return walkFlow(net, f, nil)
}

// walkFlow is WalkFlow building the traversed path in buf's storage.
func walkFlow(net *sim.Network, f Flow, buf routing.Path) (routing.Path, Outcome) {
	g := net.Topology()
	maxHops := g.NumNodes()
	path := append(buf[:0], f.Src)
	cur := f.Src
	for hops := 0; hops <= maxHops; hops++ {
		if !net.NodeIsUp(cur) {
			return path, Blackholed
		}
		if cur == f.Dst {
			if !policy.ExportCompliant(g, path) {
				return path, ValleyDelivered
			}
			return path, Delivered
		}
		nh := nextHopOf(net, cur, f.Dst)
		if nh == routing.None {
			return path, Blackholed
		}
		if !net.LinkIsUp(cur, nh) {
			// The RIB still points across a dead link: packets fall into
			// the failure the control plane has not routed around yet.
			return path, Blackholed
		}
		cur = nh
		path = append(path, cur)
	}
	return path, Looping
}

// Config parameterizes a Tracker.
type Config struct {
	// Flows is the traffic matrix to account.
	Flows []Flow
	// PacketRate converts outcome-seconds into packet equivalents
	// (packets per second per flow). Default 1000.
	PacketRate float64
}

func (c Config) rate() float64 {
	if c.PacketRate > 0 {
		return c.PacketRate
	}
	return 1000
}

// Impact is the integrated data-plane outcome of one measurement
// window: flow-seconds spent in each classification, the packet
// equivalents at Config.PacketRate, and the window-final state.
type Impact struct {
	// Per-outcome flow-seconds integrated over the window (a flow
	// blackholed for 40 ms contributes 0.04).
	DeliveredSec float64
	BlackholeSec float64
	LoopSec      float64
	ValleySec    float64
	// Packet equivalents: flow-seconds × PacketRate. BlackholePackets
	// and LoopPackets are packets lost (dropped resp. TTL-expired);
	// ValleyDeliveries are packets delivered across a policy valley.
	BlackholePackets float64
	LoopPackets      float64
	ValleyDeliveries float64
	// Transitions counts per-flow outcome changes observed across
	// re-evaluations; Evals counts re-walk rounds (dirty instants).
	Transitions int64
	Evals       int64
	// Final* count flows still in a non-delivered state when the window
	// closed — nonzero after quiescence means the control plane
	// converged onto a state that still loses traffic.
	FinalBlackholed int
	FinalLooping    int
	FinalValley     int
}

// Add folds o into i (window aggregation across trials).
func (i *Impact) Add(o Impact) {
	i.DeliveredSec += o.DeliveredSec
	i.BlackholeSec += o.BlackholeSec
	i.LoopSec += o.LoopSec
	i.ValleySec += o.ValleySec
	i.BlackholePackets += o.BlackholePackets
	i.LoopPackets += o.LoopPackets
	i.ValleyDeliveries += o.ValleyDeliveries
	i.Transitions += o.Transitions
	i.Evals += o.Evals
	i.FinalBlackholed += o.FinalBlackholed
	i.FinalLooping += o.FinalLooping
	i.FinalValley += o.FinalValley
}

// Tracker integrates flow outcomes over simulated time. It subscribes
// to the network's event stream, marks itself dirty on anything that
// can change forwarding (route changes, link and node transitions), and
// evaluates at the *end* of each dirty simulated instant (the stream's
// TraceInstant events) — outcome functions are piecewise-constant
// between instants, so the integral is exact. An evaluation re-walks
// every flow only when the instant also made the tracker stale.
type Tracker struct {
	net *sim.Network
	cfg Config

	cur     []Outcome        // current classification per flow
	pathBuf routing.Path     // eval's walk scratch; it only wants the outcomes
	dsts    []routing.NodeID // the flows' destinations, ascending, once each
	// dirty marks an instant to evaluate (every forwarding-relevant
	// event); stale marks one whose evaluation must re-walk (an event
	// that can move a flow).
	dirty    bool
	stale    bool
	primed   bool          // cur holds a real evaluation
	walks    int64         // evaluations that re-walked the flows
	lastEval time.Duration // left edge of the open integration interval
	imp      Impact
}

// NewTracker builds a tracker over net's live state. Call Install
// before Run; Window closes a measurement window.
func NewTracker(net *sim.Network, cfg Config) *Tracker {
	dsts := make([]routing.NodeID, len(cfg.Flows))
	for i, f := range cfg.Flows {
		dsts[i] = f.Dst
	}
	slices.Sort(dsts)
	return &Tracker{net: net, cfg: cfg, cur: make([]Outcome, len(cfg.Flows)), dsts: slices.Compact(dsts)}
}

// Install subscribes the tracker to the network's event stream.
// Subscribing is output-neutral: runs with a tracker report the same
// convergence times, message counts, and traces as runs without.
func (t *Tracker) Install() { t.net.Observe(t.observe) }

// observe marks the tracker dirty on forwarding-relevant events and
// re-evaluates at the end of each dirty instant that scheduled further
// work, so outcome intervals are attributed with event precision.
//
// An event also marks the tracker stale when it can change a flow's
// outcome. A walk reads the next hops toward the flow's destination,
// node and carrier state, and the static relationships. Link and node
// events change the states. A route change reported with its next hops
// (Env.RouteChangedVia) changes a walk only if the next hop moved and
// the destination is some flow's; a plain route change (OSPF, whose
// lazy SPF can move any next hop) is taken to change everything.
func (t *Tracker) observe(ev sim.TraceEvent) {
	switch ev.Kind {
	case sim.TraceRouteChange:
		t.dirty = true
		if !t.stale && (!ev.HasVia || ev.OldNext != ev.NewNext && t.isDst(ev.To)) {
			t.stale = true
		}
	case sim.TraceLinkDown, sim.TraceLinkUp, sim.TraceCrash, sim.TraceRestart:
		t.dirty = true
		t.stale = true
	case sim.TraceInstant:
		if t.dirty {
			t.eval(ev.At)
		}
	}
}

// isDst reports whether d is some flow's destination.
func (t *Tracker) isDst(d routing.NodeID) bool {
	_, ok := slices.BinarySearch(t.dsts, d)
	return ok
}

// accumulate integrates the current classification over [lastEval, now).
func (t *Tracker) accumulate(now time.Duration) {
	dt := (now - t.lastEval).Seconds()
	if dt <= 0 {
		return
	}
	for _, o := range t.cur {
		switch o {
		case Delivered:
			t.imp.DeliveredSec += dt
		case Blackholed:
			t.imp.BlackholeSec += dt
		case Looping:
			t.imp.LoopSec += dt
		case ValleyDelivered:
			t.imp.ValleySec += dt
		}
	}
}

// eval closes the open interval at now and, on the first evaluation or
// when the tracker is stale, re-walks every flow. An evaluation that
// skips the walk still counts: its outcomes are the last walk's.
func (t *Tracker) eval(now time.Duration) {
	if t.primed {
		t.accumulate(now)
	}
	t.lastEval = now
	t.dirty = false
	t.imp.Evals++
	tele.evals.Inc()
	if t.primed && !t.stale {
		return
	}
	t.stale = false
	t.walks++
	for i, f := range t.cfg.Flows {
		var o Outcome
		t.pathBuf, o = walkFlow(t.net, f, t.pathBuf)
		if t.primed && o != t.cur[i] {
			t.imp.Transitions++
			tele.transitions.Inc()
		}
		t.cur[i] = o
	}
	t.primed = true
}

// Window closes the measurement window at now — typically net.Now()
// after quiescence, whose instant never ends in the event stream (an
// instant ends only when a later one is scheduled). It integrates the open
// interval, converts to packet equivalents, snapshots the final flow
// states, and resets the accumulators so the next window starts clean
// (the classification cursor carries over).
func (t *Tracker) Window(now time.Duration) Impact {
	if t.dirty {
		t.eval(now)
	} else if t.primed {
		t.accumulate(now)
		t.lastEval = now
	}
	imp := t.imp
	rate := t.cfg.rate()
	imp.BlackholePackets = imp.BlackholeSec * rate
	imp.LoopPackets = imp.LoopSec * rate
	imp.ValleyDeliveries = imp.ValleySec * rate
	for _, o := range t.cur {
		switch o {
		case Blackholed:
			imp.FinalBlackholed++
		case Looping:
			imp.FinalLooping++
		case ValleyDelivered:
			imp.FinalValley++
		}
	}
	t.imp = Impact{}
	return imp
}
