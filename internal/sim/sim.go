// Package sim is a deterministic discrete-event network simulator — the
// reproduction's substitute for the DistComm/SSFNet platform the paper's
// prototype ran on (§5.3). It models what the paper's evaluation relies
// on: point-to-point links with fixed per-link propagation delays
// (BRITE-style, e.g. uniform 0–5 ms), zero CPU delay ("We ignore the CPU
// delay"), FIFO in-order delivery per link (DistComm is session-level,
// i.e. TCP-like), message counting, link fail/restore injection, and
// convergence detection defined as "no further update messages are
// sent".
//
// A protocol implementation (Centaur, BGP, OSPF) plugs in through the
// Protocol interface; the simulator instantiates one protocol node per
// topology node and drives it with message deliveries and adjacency
// up/down notifications.
//
// The event loop is the hot path of every Figure 6–8 experiment, so the
// internals avoid per-event allocations: nodes and links live in dense
// index-based slices (via topology.Index), the event queue is a
// monotone radix queue over an arena of by-value events (simulated time
// never moves backwards, so a push is O(1) and no pop sifts), and
// message deliveries, protocol starts, and link transitions are encoded
// as tagged events rather than heap-allocated closures. Only explicit
// protocol timers (Env.After) carry a closure.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"
	"time"
	"unsafe"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// Message is anything a protocol sends between neighbors. Units is the
// message's accounting weight: the number of elementary routing-update
// units it carries (path-vector destination updates for BGP, link
// announcements for Centaur, LSAs for OSPF), which is the quantity the
// paper's "message count" metrics report.
type Message interface {
	// Kind returns a short label for accounting (e.g. "bgp.update").
	Kind() string
	// Units returns the number of elementary update units in the message.
	Units() int
}

// ByteSizer is optionally implemented by messages that know their
// encoded wire size; the simulator then accounts Stats.Bytes, giving the
// evaluation a unit-free cost metric (see internal/wire).
type ByteSizer interface {
	WireBytes() int
}

// Env is the interface a protocol node uses to interact with the
// simulated world. It is implemented by the Network and handed to each
// node at construction.
type Env interface {
	// Self returns the node's own ID.
	Self() routing.NodeID
	// Now returns the current simulated time.
	Now() time.Duration
	// Send transmits msg to a neighbor; it is delivered after the link's
	// propagation delay, or silently dropped if the link is down.
	Send(to routing.NodeID, msg Message)
	// After schedules fn to run on this node after delay d (used for
	// timers such as BGP's MRAI). A negative d panics.
	After(d time.Duration, fn func())
	// Neighbors returns the node's adjacencies (with relationships) in
	// the underlying topology, regardless of current link state.
	Neighbors() []topology.Neighbor
	// LinkIsUp reports whether the adjacency to neighbor n is currently up.
	LinkIsUp(n routing.NodeID) bool
	// RouteChanged reports that this node's best route toward dest
	// changed (adopted, replaced, or withdrawn). The simulator records
	// the per-destination timestamp of the latest change — the raw data
	// behind per-destination convergence metrics — and counts it in
	// Stats.RouteChanges.
	RouteChanged(dest routing.NodeID)
	// RouteChangedVia is RouteChanged with the old and new next hop of
	// the changed route attached (routing.None = no route), which the
	// route event carries (schema v2's oh/nh fields). Protocols that
	// know their next hops at update time report through it; OSPF, whose
	// SPF is lazy, reports through RouteChanged.
	//
	// A protocol that reports through it promises that every change of
	// the next hop it forwards on toward dest is reported, in the instant
	// of the change, with the true old and new next hop; a report with
	// equal next hops says the next hop did not move. The data-plane flow
	// tracker (internal/forward) skips its walks on that promise. A
	// protocol that cannot keep it reports through RouteChanged.
	RouteChangedVia(dest, oldNext, newNext routing.NodeID)
	// Index returns the dense index of the topology's nodes, shared by
	// every node of the network. Protocols size their per-destination
	// tables from it once and key them by position.
	Index() *topology.Index
}

// Protocol is one routing protocol instance running at one node.
// Implementations must be fully event-driven and must not retain the
// Env beyond the node's lifetime.
type Protocol interface {
	// Start is called once at simulation start, with all links up.
	Start(env Env)
	// Handle delivers a message previously sent by neighbor from.
	Handle(from routing.NodeID, msg Message)
	// LinkDown notifies the node that its adjacency to n failed.
	LinkDown(n routing.NodeID)
	// LinkUp notifies the node that its adjacency to n recovered.
	LinkUp(n routing.NodeID)
}

// Builder constructs the protocol instance for one node. The Env is
// valid for the lifetime of the simulation.
type Builder func(env Env) Protocol

// EnvUnwrapper is implemented by adapter environments (sim's own relEnv,
// internal/liveness's gated env) that wrap another Env. BaseEnv follows
// the chain, so type-asserted accounting hooks (transportNoter, the
// Permission List false-positive note) reach the simulator's own
// environment through any stack of wrappers.
type EnvUnwrapper interface {
	UnwrapEnv() Env
}

// BaseEnv peels EnvUnwrapper adapters until it reaches the innermost
// environment — normally the simulator's own.
func BaseEnv(env Env) Env {
	for {
		u, ok := env.(EnvUnwrapper)
		if !ok {
			return env
		}
		env = u.UnwrapEnv()
	}
}

// Unwrap peels adapter protocols (anything exposing Inner() Protocol,
// such as Reliable's and internal/liveness's wrappers) off p and
// returns the protocol instance itself.
func Unwrap(p Protocol) Protocol { return peel(p, func(Protocol) bool { return false }) }

// peel walks p's adapter chain outermost first — p, then each layer's
// Inner() — and returns the first layer stop accepts, or the innermost
// protocol when it accepts none.
func peel(p Protocol, stop func(Protocol) bool) Protocol {
	for !stop(p) {
		a, ok := p.(interface{ Inner() Protocol })
		if !ok {
			break
		}
		p = a.Inner()
	}
	return p
}

// Event kinds of the tagged event union. evFunc and evNodeTimer are the
// only kinds that carry a closure (as a timerFn in msg); the others are
// dispatched inline by Run so the steady-state send/deliver cycle
// allocates nothing per event.
const (
	evFunc uint8 = iota
	evStart
	evDeliver
	evLinkDown
	evLinkUp
	// evNodeTimer is an Env.After timer belonging to one node. Unlike
	// evFunc it carries the node's generation (in epoch), so timers of a
	// protocol instance that crashed are skipped instead of firing into
	// a replaced instance's captured state.
	evNodeTimer
)

// timerFn carries a timer's closure in an event's msg field, so an event
// needs no separate func field. A func value is pointer-shaped, so
// boxing it in the interface does not allocate. It is never sent: the
// Message methods exist only to fit the field.
type timerFn func()

func (timerFn) Kind() string { return "sim.timer" }
func (timerFn) Units() int   { return 0 }

// faultDrop marks a delivery the fault injector decided to lose: the
// message traverses the link (so the trace shows the decision and the
// loss as separate records) and is discarded at delivery time.
const faultDrop uint8 = 1

// event is one scheduled occurrence. Which fields are meaningful depends
// on kind: evFunc uses msg (a timerFn); evStart uses to; evDeliver uses
// from, to, link, epoch, fault, and msg; evLinkDown/evLinkUp use from
// (the peer) and to (the dense index of the notified node); evNodeTimer
// uses msg (a timerFn), to, and epoch (the node generation). Every event
// also carries cause/depth: the span of the occurrence that scheduled it
// (the send for a delivery, the link transition for a notification, the
// active cause for a timer) and that cause's causal depth, captured at
// scheduling time so the handler inherits causality.
//
// The fields are ordered so the struct packs into exactly one 64-byte
// cache line; every push and pop copies a whole event and the queue
// keeps one per slot of its peak, so each byte counts. epoch is 32
// bits: a link epoch would have to wrap (2³² failures of one link while
// a message sent before the first is still in flight) before a stale
// delivery could pass its check, and a node generation (2³² crashes of
// one node while a timer of the first instance is pending) before a
// stale timer could fire.
type event struct {
	at    time.Duration
	seq   uint64 // tie-break so equal-time events run in schedule order
	cause uint64
	msg   Message
	from  routing.NodeID
	to    int32
	link  int32
	depth int32
	epoch uint32
	kind  uint8
	fault uint8
}

// eventQueue is a monotone radix queue of by-value events, popped in
// (at, seq) order. It relies on simulated time only moving forward:
// every queued event is at or after last, the time of the latest pop
// (the network's now), so an event's bucket is the position of the
// highest bit in which its time differs from last, bits.Len64(at^last).
// Bucket 0 holds the events due now; bucket b > 0 those that agree with
// last above bit b-1 and differ there. A push is O(1). A pop that finds
// bucket 0 empty takes the lowest non-empty bucket, makes its earliest
// time (kept up to date by every append) the new last and moves its
// events down (refill): each lands in a strictly lower bucket, so an
// event moves at most 63 times however long it waits. Times are
// non-negative, so bucket 64 is never used.
//
// Events live by value in one arena (slots); link threads each slot
// into its bucket's list or, once popped, into the free chain, so the
// queue keeps 68 bytes per slot of its peak, plus its fixed bucket
// tables, and a steady push/pop allocates nothing. Every bucket list is
// kept oldest first: a push carries the largest seq yet and appends,
// and a refill walks its bucket in order into buckets that are all
// empty. Bucket 0 is thus in seq order with no sort, and the pop order
// is exactly (at, seq). The zero value is an empty queue.
type eventQueue struct {
	slots []event
	link  []int32
	// For each bucket whose bit is set in nonEmpty: its first and last
	// slot and its earliest time.
	head, tail [64]int32
	earliest   [64]time.Duration
	nonEmpty   uint64
	// free is the most recently vacated slot, valid while fewer events
	// are queued than slots exist.
	free   int32
	queued int
	last   time.Duration
}

func (q *eventQueue) push(e event) {
	var s int32
	if q.queued < len(q.slots) {
		s = q.free
		q.free = q.link[s]
		q.slots[s] = e
	} else {
		s = int32(len(q.slots))
		q.slots = append(q.slots, e)
		q.link = append(q.link, 0)
	}
	q.queued++
	q.appendTo(s, e.at)
}

// appendTo links slot s, due at at, to the tail of its bucket.
func (q *eventQueue) appendTo(s int32, at time.Duration) {
	b := bits.Len64(uint64(at ^ q.last))
	if q.nonEmpty&(1<<b) == 0 {
		q.nonEmpty |= 1 << b
		q.head[b] = s
		q.earliest[b] = at
	} else {
		q.link[q.tail[b]] = s
		q.earliest[b] = min(q.earliest[b], at)
	}
	q.tail[b] = s
}

// pop removes and returns the earliest event; the queue must not be
// empty.
func (q *eventQueue) pop() event {
	if q.nonEmpty&1 == 0 {
		q.refill()
	}
	s := q.head[0]
	if s == q.tail[0] {
		q.nonEmpty &^= 1
	} else {
		q.head[0] = q.link[s]
	}
	ev := q.slots[s]
	q.slots[s].msg = nil // drop the msg reference for the GC
	q.link[s] = q.free
	q.free = s
	q.queued--
	return ev
}

// refill empties the lowest non-empty bucket into the ones below it,
// relative to its earliest time, which becomes last. The events due at
// that time reach bucket 0.
func (q *eventQueue) refill() {
	b := bits.TrailingZeros64(q.nonEmpty)
	q.nonEmpty &^= 1 << b
	q.last = q.earliest[b]
	for s, end := q.head[b], q.tail[b]; ; {
		next := q.link[s]
		q.appendTo(s, q.slots[s].at)
		if s == end {
			return
		}
		s = next
	}
}

// each calls fn on every queued event, in no particular order.
func (q *eventQueue) each(fn func(*event)) {
	for m := q.nonEmpty; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		for s := q.head[b]; ; s = q.link[s] {
			fn(&q.slots[s])
			if s == q.tail[b] {
				break
			}
		}
	}
}

// linkKey canonically identifies an undirected link.
type linkKey struct{ a, b routing.NodeID }

func keyOf(a, b routing.NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// linkState is the dynamic state of one undirected link.
type linkState struct {
	delay time.Duration
	// since is the simulated time of the last up/down transition, kept
	// for watchdog diagnostics (LinkSession.Since).
	since time.Duration
	// epoch increments on every failure so in-flight messages sent
	// before the failure are dropped at delivery time (32 bits, see
	// event).
	epoch uint32
	up    bool
}

// Stats accumulates the simulator's accounting.
type Stats struct {
	// Messages is the number of point-to-point messages sent (each is
	// later delivered or dropped).
	Messages int64
	// Units is the total number of elementary update units sent
	// (the paper's "message count" metric).
	Units int64
	// UnitsByKind breaks Units down by Message.Kind.
	UnitsByKind map[string]int64
	// MsgsByKind breaks Messages down by Message.Kind.
	MsgsByKind map[string]int64
	// BytesByKind breaks Bytes down by Message.Kind.
	BytesByKind map[string]int64
	// Bytes is the total encoded wire size of all sent messages whose
	// type implements ByteSizer (all three built-in protocols do).
	Bytes int64
	// LastSend is the simulated time of the last message transmission;
	// the network has re-stabilized when no send follows it.
	LastSend time.Duration
	// Dropped counts all messages lost to link failures: those refused
	// at send time plus those lost in flight when their link failed.
	Dropped int64
	// Undeliverable is the subset of Dropped refused at send time
	// because the link was down (or the neighbor did not exist).
	Undeliverable int64
	// RouteChanges counts Env.RouteChanged notifications — best-route
	// updates protocols reported.
	RouteChanges int64
	// FaultDrops is the subset of Dropped lost to injected faults (the
	// injector decided to lose the message in flight).
	FaultDrops int64
	// FaultDups counts extra deliveries injected by the fault injector.
	FaultDups int64
	// Retransmits counts frames the reliable-transport adapter resent
	// after a retransmission timeout.
	Retransmits int64
	// DupSuppressed counts frames the reliable-transport adapter
	// discarded as duplicates (injected duplicates or spurious
	// retransmissions).
	DupSuppressed int64
	// TransportAbandoned counts frames the reliable-transport adapter
	// gave up on after exhausting its retransmission budget.
	TransportAbandoned int64
	// StaleTimers counts Env.After timers skipped because their node
	// crashed (and was possibly replaced) after they were scheduled.
	StaleTimers int64
	// PLFalsePositives counts Bloom false-positive hits taken by
	// compressed Permission List checks during path derivation (§4.1).
	// Each hit was denied — compression never grants a path the policy
	// did not — so the count measures exposure, not damage.
	PLFalsePositives int64
	// Events is the lifetime number of simulator events processed by
	// Run. Unlike the message counters it is NOT zeroed by ResetStats,
	// so callers can tell "quiesced" from "hit maxEvents" even after a
	// mid-run reset.
	Events int64
}

// Config parameterizes a Network.
type Config struct {
	// Topology is the annotated AS graph to simulate. Required.
	Topology *topology.Graph
	// Build constructs each node's protocol instance. Required.
	Build Builder
	// DelaySeed seeds the per-link delay assignment.
	DelaySeed int64
	// MinDelay and MaxDelay bound the uniform per-link propagation
	// delays; the paper's BRITE setup uses 0–5 ms. If both are zero the
	// defaults 0 and 5 ms apply; a negative MinDelay is an error. Delays
	// are fixed per link, which makes each link FIFO like DistComm's
	// session transport.
	MinDelay, MaxDelay time.Duration
}

// FaultDecision is a fault injector's verdict for one message
// transmission on an up link. The zero value delivers normally.
type FaultDecision struct {
	// Drop loses the message in flight: it is discarded at delivery
	// time with a TraceDropFault record, paired with the TraceFaultLoss
	// decision record emitted at send time.
	Drop bool
	// Duplicate delivers a second copy of the message.
	Duplicate bool
	// Jitter adds extra delivery delay to the message, breaking the
	// link's FIFO ordering (delayed messages can be overtaken).
	Jitter time.Duration
	// DupJitter adds extra delivery delay to the duplicate copy; the
	// duplicate's whole delay, link delay included, must not be negative.
	DupJitter time.Duration
}

// Injector decides per-message fault outcomes in the delivery path. The
// simulator calls Deliver exactly once per protocol send on an up link,
// in deterministic event order — the event schedule is totally ordered
// by (time, sequence) and processed single-threaded — so an
// implementation drawing from a seeded RNG yields a reproducible fault
// sequence. Scheduled faults (flap storms, crashes, partitions) are
// driven separately through Network.Schedule, FailLink/RestoreLink, and
// CrashNode/RestartNode; internal/faults packages both halves behind a
// single deterministic plan.
type Injector interface {
	Deliver(from, to routing.NodeID, msg Message) FaultDecision
}

// TraceKind classifies a TraceEvent.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceSend is a message entering a link.
	TraceSend TraceKind = iota + 1
	// TraceDeliver is a message arriving at its destination node.
	TraceDeliver
	// TraceDrop is a message lost to a down link.
	TraceDrop
	// TraceLinkDown and TraceLinkUp are injected link transitions.
	TraceLinkDown
	TraceLinkUp
	// TraceRouteChange is a protocol reporting a best-route update for a
	// destination via Env.RouteChanged (From is the reporting node, To
	// the destination).
	TraceRouteChange
	// TraceFaultLoss is the injector's decision record for a message it
	// chose to lose; the loss itself appears later as TraceDropFault.
	TraceFaultLoss
	// TraceFaultDup is the injector's decision record for a duplicated
	// message (the extra copy arrives as a second TraceDeliver).
	TraceFaultDup
	// TraceFaultJitter is the injector's decision record for a message
	// given extra delivery delay.
	TraceFaultJitter
	// TraceDropFault is a message discarded at delivery time because the
	// injector decided to lose it. Every TraceDropFault has a matching
	// earlier TraceFaultLoss with the same endpoints and message kind.
	TraceDropFault
	// TraceCrash and TraceRestart are injected node crash/restart
	// transitions (From and To are both the node).
	TraceCrash
	TraceRestart
	// TracePLFalsePositive is a Bloom false-positive hit in a compressed
	// Permission List check (From is the node deriving, To the
	// destination whose check hit; the path was denied).
	TracePLFalsePositive
	// TraceAdvInject is the attachment of an adversarial attack before
	// the run starts (From is the attacker, To its victim destination or
	// routing.None). A root event: no parent, depth 0.
	TraceAdvInject
	// TraceAdvBad is the adversarial detector flagging a just-installed
	// route as contaminated (From is the node, To the destination),
	// emitted by the detector's subscriber right after the route event.
	// Like route events it inherits the causing delivery's span.
	TraceAdvBad
	// TraceInstant marks the end of a processed simulated instant (At):
	// every state change of the instant has been applied and nothing
	// later has run. It carries no span and is published once per
	// instant Run advances past, so the final instant before quiescence
	// gets none. The forwarding tracker flushes on it.
	TraceInstant
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceLinkDown:
		return "link-down"
	case TraceLinkUp:
		return "link-up"
	case TraceRouteChange:
		return "route"
	case TraceFaultLoss:
		return "fault-loss"
	case TraceFaultDup:
		return "fault-dup"
	case TraceFaultJitter:
		return "fault-jitter"
	case TraceDropFault:
		return "drop-fault"
	case TraceCrash:
		return "crash"
	case TraceRestart:
		return "restart"
	case TracePLFalsePositive:
		return "pl-fp"
	case TraceAdvInject:
		return "adv-inject"
	case TraceAdvBad:
		return "adv-bad"
	case TraceInstant:
		return "instant"
	default:
		return fmt.Sprintf("trace(%d)", uint8(k))
	}
}

// TraceEvent is one observed simulator occurrence. Msg is nil for link
// transitions.
type TraceEvent struct {
	Kind     TraceKind
	At       time.Duration
	From, To routing.NodeID
	Msg      Message
	// Span, Parent, and Depth are the causal provenance annotations:
	// Span is this event's network-unique cause ID (dense from 1, in
	// emission order), Parent the span of the event that caused it (0 =
	// none, a startup or externally driven occurrence), and Depth the
	// causal depth in message hops from the root link/node event. Root
	// events — link transitions, crashes, restarts — are depth 0; a send
	// is one deeper than its cause; deliveries, fault records, and route
	// changes inherit their cause's depth.
	Span, Parent uint64
	Depth        int32
	// OldNext and NewNext are the old and new next hop of a
	// TraceRouteChange reported through RouteChangedVia; routing.None
	// means "no route". HasVia distinguishes them from a plain
	// RouteChanged report, which leaves the next hops unknown (e.g.
	// OSPF, whose SPF — and hence next hop — is computed lazily).
	OldNext, NewNext routing.NodeID
	HasVia           bool
}

// adjRef is one adjacency of a node in the dense layout: the neighbor's
// ID (for lookup by protocols, which speak NodeID), its dense index, and
// the slot of the shared undirected link state.
type adjRef struct {
	id   routing.NodeID
	node int32
	link int32
}

// Network is a running simulation: a topology, one protocol instance
// per node, an event queue, and accounting. Create with NewNetwork;
// not safe for concurrent use.
type Network struct {
	topo   *topology.Graph
	idx    *topology.Index
	nodes  []Protocol // dense, by topology.Index position
	envs   []nodeEnv  // dense; envs[i] is handed to nodes[i]
	links  []linkState
	linkAt map[linkKey]int32 // cold-path lookup (fail/restore/delay)
	pq     eventQueue        // every queued event is at or after now
	now    time.Duration
	seq    uint64
	stats  Stats
	// kindUnits accumulates the per-kind Stats breakdowns as a tiny
	// linear list (a handful of constant kinds), avoiding a string-hash
	// map op per send; Stats() materializes the maps.
	kindUnits []kindCount
	// routeChangedAt[i] is the simulated time of the latest RouteChanged
	// report for destination idx.ID(i); routeChangedSet[i] says whether
	// one occurred since the last ResetStats.
	routeChangedAt  []time.Duration
	routeChangedSet []bool
	events          int64
	// subs are the event-stream subscribers, in subscription order (see
	// Observe); queued holds the event being published and those its
	// subscribers emit behind it.
	subs   []func(TraceEvent)
	queued []TraceEvent
	// injector, when non-nil, is consulted for every message entering an
	// up link (see Injector). Its presence blocks Checkpoint.
	injector Injector
	// build re-creates a node's protocol instance after a crash
	// (RestartNode); nil in forked networks, which cannot restart nodes.
	build Builder
	// nodeDown[i] marks nodes taken down by CrashNode and not yet
	// restarted.
	nodeDown []bool
	// minDelay/maxDelay are the effective delay bounds (after defaulting),
	// retained so Checkpoint.Fork can re-derive per-link delays from a new
	// seed exactly the way NewNetwork did.
	minDelay, maxDelay time.Duration
	// spanSeq allocates network-unique provenance span IDs, dense from 1
	// in emission order. Deterministic because the event schedule is a
	// total order processed single-threaded.
	spanSeq uint64
	// curCause/curDepth are the active-cause registers: the span and
	// causal depth the currently executing handler inherits. Set per
	// event at dispatch (a delivery advances curCause to its own span
	// before Handle runs), captured by Send, After, and Schedule, and
	// advanced by each root operation so closures it schedules are
	// parented to it (a flap's restore hangs off its fail). Reset to
	// zero when Run drains, so external drivers start parentless.
	curCause uint64
	curDepth int32
	// rootCause is the parent used for root spans (FailLink, CrashNode,
	// ...). Unlike curCause it stays fixed for the whole event, so
	// multiple root operations in one closure (a partition's cuts)
	// become siblings instead of a chain.
	rootCause uint64
	// cold marks a network whose cold start has not drained yet. Every
	// node speaks at once in a cold start, so the queue peaks far above
	// what any later phase needs; the Run that first drains it drops the
	// backing array, and later runs grow the queue to their own peak.
	cold bool
	// sized is the accounting of the last message Send charged, reused
	// while a fan-out hands Send the same box (see Send).
	sized sizedMsg
}

// kindCount is one per-kind accumulator of sent messages, units, and
// wire bytes.
type kindCount struct {
	kind  string
	units int64
	msgs  int64
	bytes int64
}

// emit allocates the next span and publishes an event under it with the
// given causal annotations. The span is returned so the caller can
// thread causality into whatever the event triggers. Spans are
// allocated whether or not anyone subscribes, so span IDs do not depend
// on who is listening.
func (n *Network) emit(kind TraceKind, from, to routing.NodeID, msg Message, parent uint64, depth int32) uint64 {
	n.spanSeq++
	if len(n.subs) > 0 {
		n.publish(TraceEvent{Kind: kind, At: n.now, From: from, To: to, Msg: msg,
			Span: n.spanSeq, Parent: parent, Depth: depth})
	}
	return n.spanSeq
}

// publish hands ev to every subscriber in subscription order. An event
// a subscriber emits meanwhile waits in the queue until ev has reached
// every subscriber, so all of them see one order.
func (n *Network) publish(ev TraceEvent) {
	n.queued = append(n.queued, ev)
	if len(n.queued) > 1 {
		return // emitted from a subscriber: the loop below delivers it
	}
	for i := 0; i < len(n.queued); i++ {
		for _, fn := range n.subs {
			fn(n.queued[i])
		}
	}
	n.queued = n.queued[:0]
}

// NewNetwork builds the simulation: assigns per-link delays, constructs
// every protocol node, and schedules their Start calls at time zero.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("sim: Config.Build is required")
	}
	n, err := newShell(cfg, nil)
	if err != nil {
		return nil, err
	}
	n.build = cfg.Build
	n.cold = true
	numNodes := len(n.nodes)
	for i := 0; i < numNodes; i++ {
		n.nodes[i] = cfg.Build(&n.envs[i])
	}
	// Schedule every node's Start at t=0 in deterministic ID order.
	for i := 0; i < numNodes; i++ {
		n.push(event{kind: evStart, to: int32(i)})
	}
	return n, nil
}

// newShell builds the simulation skeleton shared by NewNetwork and
// Checkpoint.Fork: dense node/link tables with per-link delays drawn
// from cfg.DelaySeed over the topology's deterministic edge order, empty
// queue, zero accounting. Protocol construction and event scheduling
// stay with the caller. A non-nil idx reuses a previously built index of
// the same topology (Fork passes the template's, avoiding a rebuild).
func newShell(cfg Config, idx *topology.Index) (*Network, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("sim: Config.Topology is required")
	}
	minD, maxD := cfg.MinDelay, cfg.MaxDelay
	if minD == 0 && maxD == 0 {
		maxD = 5 * time.Millisecond
	}
	if minD < 0 {
		return nil, fmt.Errorf("sim: negative MinDelay %v", minD)
	}
	if maxD < minD {
		return nil, fmt.Errorf("sim: MaxDelay %v < MinDelay %v", maxD, minD)
	}
	if idx == nil {
		idx = topology.NewIndex(cfg.Topology)
	}
	numNodes := idx.Len()
	edges := cfg.Topology.Edges()
	n := &Network{
		topo:   cfg.Topology,
		idx:    idx,
		nodes:  make([]Protocol, numNodes),
		envs:   make([]nodeEnv, numNodes),
		links:  make([]linkState, 0, len(edges)),
		linkAt: make(map[linkKey]int32, len(edges)),
		pq:     eventQueue{slots: make([]event, 0, numNodes), link: make([]int32, 0, numNodes)},

		routeChangedAt:  make([]time.Duration, numNodes),
		routeChangedSet: make([]bool, numNodes),
		nodeDown:        make([]bool, numNodes),
		minDelay:        minD,
		maxDelay:        maxD,
	}
	rng := rand.New(rand.NewSource(cfg.DelaySeed))
	for _, e := range edges {
		d := minD
		if span := int64(maxD - minD); span > 0 {
			d += time.Duration(rng.Int63n(span + 1))
		}
		n.linkAt[keyOf(e.A, e.B)] = int32(len(n.links))
		n.links = append(n.links, linkState{delay: d, up: true})
	}
	for i := 0; i < numNodes; i++ {
		id := idx.ID(i)
		nbs := cfg.Topology.Neighbors(id) // sorted by neighbor ID
		adj := make([]adjRef, len(nbs))
		for j, nb := range nbs {
			adj[j] = adjRef{
				id:   nb.ID,
				node: int32(idx.Pos(nb.ID)),
				link: n.linkAt[keyOf(id, nb.ID)],
			}
		}
		n.envs[i] = nodeEnv{net: n, self: id, pos: int32(i), adj: adj}
	}
	return n, nil
}

// sizedMsg is the accounting of one boxed message.
type sizedMsg struct {
	msg         Message
	units, wire int64
	kind        string
}

// sameBox reports whether a and b are one boxed value: the same dynamic
// type and the same data word. Unlike ==, it never compares contents, so
// it costs two word compares and cannot panic on an uncomparable type. A
// pointer-shaped value is its own data word, so there equal words are
// equal contents.
func sameBox(a, b Message) bool {
	return *(*[2]unsafe.Pointer)(unsafe.Pointer(&a)) == *(*[2]unsafe.Pointer)(unsafe.Pointer(&b))
}

// nodeEnv is the per-node view of the network.
type nodeEnv struct {
	net  *Network
	self routing.NodeID
	pos  int32
	adj  []adjRef // ascending by neighbor ID
	// gen is the node's protocol-instance generation; CrashNode bumps it
	// so Env.After timers of the dead instance are skipped (32 bits, see
	// event).
	gen uint32
	// hint is the index in adj that ref resolved last.
	hint int32
}

var _ Env = (*nodeEnv)(nil)

// ref finds the adjacency entry for neighbor to. It tries the entry
// it resolved last and the one after it before a binary search over the
// sorted list, so LinkIsUp(nb) followed by Send(nb), and any loop over
// the neighbors in ascending order, resolve each neighbor in O(1)
// however high the node's degree.
func (e *nodeEnv) ref(to routing.NodeID) (adjRef, bool) {
	adj := e.adj
	if h := int(e.hint); h < len(adj) {
		if adj[h].id == to {
			return adj[h], true
		}
		if h++; h < len(adj) && adj[h].id == to {
			e.hint = int32(h)
			return adj[h], true
		}
	}
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].id < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(adj) && adj[lo].id == to {
		e.hint = int32(lo)
		return adj[lo], true
	}
	return adjRef{}, false
}

func (e *nodeEnv) Self() routing.NodeID { return e.self }

func (e *nodeEnv) Now() time.Duration { return e.net.now }

func (e *nodeEnv) Neighbors() []topology.Neighbor { return e.net.topo.Neighbors(e.self) }

func (e *nodeEnv) Index() *topology.Index { return e.net.idx }

func (e *nodeEnv) LinkIsUp(n routing.NodeID) bool {
	ar, ok := e.ref(n)
	return ok && e.net.links[ar.link].up
}

// Send charges msg to the stats and queues its delivery. A fan-out hands
// Send one boxed message for every neighbor, so Send keeps the last box
// it charged with its units, wire bytes and kind, and charges the same
// box again without asking it: the message is sized once per fan-out,
// not once per neighbor. The reuse is exact because a message is
// immutable once handed to Send (DESIGN.md, "One boxed message per
// fan-out"), and because the held box stays alive, so no other message
// can be given its address.
func (e *nodeEnv) Send(to routing.NodeID, msg Message) {
	net := e.net
	ar, ok := e.ref(to)
	if !ok || !net.links[ar.link].up {
		net.stats.Dropped++
		net.stats.Undeliverable++
		// A send-time refusal has no send span of its own, so the drop
		// hangs directly off the active cause, one hop deeper — the same
		// place the send would have been.
		net.emit(TraceDrop, e.self, to, msg, net.curCause, net.curDepth+1)
		return
	}
	ls := &net.links[ar.link]
	net.stats.Messages++
	sz := &net.sized
	if sz.msg == nil || !sameBox(sz.msg, msg) {
		*sz = sizedMsg{msg: msg, units: int64(msg.Units()), kind: msg.Kind()}
		if bs, ok := msg.(ByteSizer); ok {
			sz.wire = int64(bs.WireBytes())
		}
	}
	net.stats.Units += sz.units
	net.stats.Bytes += sz.wire
	net.account(sz.kind, sz.units, sz.wire)
	net.stats.LastSend = net.now
	// The send is one message hop deeper than whatever triggered it; the
	// delivery (and every fault record) inherits the send's span/depth.
	sendDepth := net.curDepth + 1
	sendSpan := net.emit(TraceSend, e.self, to, msg, net.curCause, sendDepth)
	delay := ls.delay
	var fault uint8
	var dec FaultDecision
	if net.injector != nil {
		dec = net.injector.Deliver(e.self, to, msg)
		if dec.Drop {
			fault = faultDrop
			net.emit(TraceFaultLoss, e.self, to, msg, sendSpan, sendDepth)
		}
		if dec.Jitter > 0 {
			delay += dec.Jitter
			net.emit(TraceFaultJitter, e.self, to, msg, sendSpan, sendDepth)
		}
	}
	net.seq++
	net.pq.push(event{
		at:    net.now + delay,
		seq:   net.seq,
		epoch: ls.epoch,
		cause: sendSpan,
		msg:   msg,
		from:  e.self,
		to:    ar.node,
		link:  ar.link,
		depth: sendDepth,
		kind:  evDeliver,
		fault: fault,
	})
	if dec.Duplicate {
		dupDelay := ls.delay + dec.DupJitter
		if dupDelay < 0 {
			net.schedulingPast(fmt.Sprintf("the injector (a duplicate from node %v)", e.self), dupDelay)
		}
		net.stats.FaultDups++
		net.emit(TraceFaultDup, e.self, to, msg, sendSpan, sendDepth)
		net.seq++
		net.pq.push(event{
			at:    net.now + dupDelay,
			seq:   net.seq,
			epoch: ls.epoch,
			cause: sendSpan,
			msg:   msg,
			from:  e.self,
			to:    ar.node,
			link:  ar.link,
			depth: sendDepth,
			kind:  evDeliver,
		})
	}
}

func (e *nodeEnv) After(d time.Duration, fn func()) {
	net := e.net
	if d < 0 {
		net.schedulingPast(fmt.Sprintf("node %v", e.self), d)
	}
	net.seq++
	// The timer captures the active cause: an MRAI or retransmit timer
	// armed while handling a delivery keeps that delivery's causality,
	// so sends it makes later still chain back to the root event.
	net.pq.push(event{at: net.now + d, seq: net.seq, msg: timerFn(fn), kind: evNodeTimer,
		to: e.pos, epoch: e.gen, cause: net.curCause, depth: net.curDepth})
}

// noteRetransmit, noteDupSuppressed, and noteAbandoned fold the
// reliable-transport adapter's accounting into the network stats; the
// adapter reaches them by type-asserting its Env (see transportNoter).
func (e *nodeEnv) noteRetransmit()    { e.net.stats.Retransmits++ }
func (e *nodeEnv) noteDupSuppressed() { e.net.stats.DupSuppressed++ }
func (e *nodeEnv) noteAbandoned()     { e.net.stats.TransportAbandoned++ }

// NotePLFalsePositive folds a compressed Permission List Bloom
// false-positive hit (observed inside a protocol's path derivation)
// into the stats and the event stream. Exported because protocol
// packages reach it by type-asserting BaseEnv of their Env, which
// crosses packages — unlike the transportNoter methods, which sim's own
// adapter asserts.
func (e *nodeEnv) NotePLFalsePositive(dest routing.NodeID) {
	e.net.stats.PLFalsePositives++
	e.net.Emit(TracePLFalsePositive, e.self, dest)
}

func (e *nodeEnv) RouteChanged(dest routing.NodeID) {
	e.routeChanged(dest, routing.None, routing.None, false)
}

func (e *nodeEnv) RouteChangedVia(dest, oldNext, newNext routing.NodeID) {
	e.routeChanged(dest, oldNext, newNext, true)
}

func (e *nodeEnv) routeChanged(dest, oldNext, newNext routing.NodeID, hasVia bool) {
	net := e.net
	net.stats.RouteChanges++
	if p := net.idx.Pos(dest); p >= 0 {
		net.routeChangedAt[p] = net.now
		net.routeChangedSet[p] = true
	}
	net.spanSeq++
	if len(net.subs) > 0 {
		net.publish(TraceEvent{Kind: TraceRouteChange, At: net.now, From: e.self, To: dest,
			Span: net.spanSeq, Parent: net.curCause, Depth: net.curDepth,
			OldNext: oldNext, NewNext: newNext, HasVia: hasVia})
	}
}

// RouteChangedVia calls env.RouteChangedVia; the benchmark module
// (benchmark/) still calls it in this form.
func RouteChangedVia(env Env, dest, oldNext, newNext routing.NodeID) {
	env.RouteChangedVia(dest, oldNext, newNext)
}

// schedule enqueues a closure event after the given delay. Protocol
// timers (Env.After) and tests use it; the steady-state message cycle
// goes through the allocation-free tagged kinds instead. The closure
// captures the active cause, which is what parents a fault plan's
// nested restores to the fail that scheduled them.
func (n *Network) schedule(after time.Duration, fn func()) {
	if after < 0 {
		n.schedulingPast("external", after)
	}
	n.seq++
	n.pq.push(event{at: n.now + after, seq: n.seq, msg: timerFn(fn), kind: evFunc,
		cause: n.curCause, depth: n.curDepth})
}

// push enqueues a tagged event at the current time plus ev.at, assigning
// the next sequence number. Callers pass ev.at as a relative delay.
func (n *Network) push(ev event) {
	if ev.at < 0 {
		n.schedulingPast(fmt.Sprintf("node %v", n.idx.ID(int(ev.to))), ev.at)
	}
	n.seq++
	ev.at += n.now
	ev.seq = n.seq
	n.pq.push(ev)
}

// schedulingPast panics on an event due d < 0 after now. Simulated time
// only moves forward, and the event queue's buckets rely on it: such an
// event would have run before the one being handled. who names the
// scheduler: a node, or "external" for Network.Schedule.
func (n *Network) schedulingPast(who string, d time.Duration) {
	panic(fmt.Sprintf("sim: %s scheduled an event with delay %v at t=%v: simulated time cannot move backwards", who, d, n.now))
}

// account accumulates one sent message under its kind. Kinds are
// constant strings, so the linear scan compares pointers in the common
// case.
func (n *Network) account(kind string, units, bytes int64) {
	for i := range n.kindUnits {
		if n.kindUnits[i].kind == kind {
			n.kindUnits[i].units += units
			n.kindUnits[i].msgs++
			n.kindUnits[i].bytes += bytes
			return
		}
	}
	n.kindUnits = append(n.kindUnits, kindCount{kind: kind, units: units, msgs: 1, bytes: bytes})
}

// Now returns the current simulated time.
func (n *Network) Now() time.Duration { return n.now }

// Topology returns the simulated graph.
func (n *Network) Topology() *topology.Graph { return n.topo }

// Schedule enqueues fn to run after d of simulated time, measured from
// the current instant. External drivers (fault plans, tests) use it;
// protocol nodes use Env.After, whose timers a node crash invalidates.
// A negative d panics.
func (n *Network) Schedule(d time.Duration, fn func()) { n.schedule(d, fn) }

// SetInjector installs (or, with nil, removes) a delivery-path fault
// injector. Install before the first Run; an active injector blocks
// Checkpoint (ErrFaultsActive), since a fork could not reproduce the
// injector's RNG state.
func (n *Network) SetInjector(inj Injector) { n.injector = inj }

// NodeIsUp reports whether id exists and is not currently crashed.
func (n *Network) NodeIsUp(id routing.NodeID) bool {
	i := n.idx.Pos(id)
	return i >= 0 && !n.nodeDown[i]
}

// LinkIsUp reports whether the undirected link a—b exists and is
// currently up. The data-plane forwarding walker consults it per hop:
// a RIB may still point over a link whose carrier already dropped.
func (n *Network) LinkIsUp(a, b routing.NodeID) bool {
	li, ok := n.linkAt[keyOf(a, b)]
	return ok && n.links[li].up
}

// Observe subscribes fn to the network's event stream: every send,
// delivery, drop, fault record, link and node transition, route change
// and end of instant, synchronously inside the event loop, so fn sees a
// consistent view but should stay cheap. Subscribers run in
// subscription order; an event a subscriber emits (Emit) reaches every
// subscriber after the event that triggered it. The trace writer, the
// forwarding tracker and the adversarial detector subscribe here.
// Subscribing changes nothing the network computes.
func (n *Network) Observe(fn func(TraceEvent)) { n.subs = append(n.subs, fn) }

// Emit publishes a message-less event of the given kind under a fresh
// span, parented to the active cause at the cause's depth. Inside a
// subscriber that is the cause of the event being observed; before the
// first Run and between runs there is none, so the event is a root
// (the adversarial setup's TraceAdvInject markers).
func (n *Network) Emit(kind TraceKind, from, to routing.NodeID) {
	n.emit(kind, from, to, nil, n.curCause, n.curDepth)
}

// CrashNode takes node id down at the current simulated time, modeling a
// full process crash: every up adjacency fails (in-flight messages on it
// are lost, each neighbor receives LinkDown), the protocol instance's
// pending Env.After timers are invalidated, and the node receives no
// events while down. The wiped instance is replaced on RestartNode. The
// crashed node itself gets no LinkDown notifications — there is no
// process left to observe them. Reports whether id existed and was up.
func (n *Network) CrashNode(id routing.NodeID) bool {
	i := n.idx.Pos(id)
	if i < 0 || n.nodeDown[i] {
		return false
	}
	n.nodeDown[i] = true
	n.envs[i].gen++
	crash := n.emit(TraceCrash, id, id, nil, n.rootCause, 0)
	n.curCause, n.curDepth = crash, 0
	for _, ar := range n.envs[i].adj {
		ls := &n.links[ar.link]
		if !ls.up {
			continue
		}
		ls.up = false
		ls.epoch++
		ls.since = n.now
		span := n.emit(TraceLinkDown, id, ar.id, nil, crash, 0)
		n.push(event{kind: evLinkDown, to: ar.node, from: id, cause: span})
	}
	return true
}

// RestartNode brings a crashed node back at the current simulated time
// with a freshly built protocol instance — the full-state-wipe half of
// crash recovery. Its Start runs before any neighbor message can arrive;
// every adjacency whose other endpoint is up is restored, and each such
// neighbor receives LinkUp (triggering the protocol's resync path).
// Restoring all adjacencies deliberately supersedes any outage (e.g. a
// flap storm's) that was holding one of them down. Reports whether id
// was crashed; always false on forked networks, which carry no Builder.
func (n *Network) RestartNode(id routing.NodeID) bool {
	i := n.idx.Pos(id)
	if i < 0 || !n.nodeDown[i] || n.build == nil {
		return false
	}
	n.nodeDown[i] = false
	n.nodes[i] = n.build(&n.envs[i])
	restart := n.emit(TraceRestart, id, id, nil, n.rootCause, 0)
	n.curCause, n.curDepth = restart, 0
	n.push(event{kind: evStart, to: int32(i), cause: restart})
	for _, ar := range n.envs[i].adj {
		ls := &n.links[ar.link]
		if ls.up || n.nodeDown[ar.node] {
			continue
		}
		ls.up = true
		ls.since = n.now
		span := n.emit(TraceLinkUp, id, ar.id, nil, restart, 0)
		n.push(event{kind: evLinkUp, to: ar.node, from: id, cause: span})
	}
	return true
}

// Stats returns a snapshot of the accounting so far.
func (n *Network) Stats() Stats {
	out := n.stats
	out.Events = n.events
	out.UnitsByKind = make(map[string]int64, len(n.kindUnits))
	out.MsgsByKind = make(map[string]int64, len(n.kindUnits))
	out.BytesByKind = make(map[string]int64, len(n.kindUnits))
	for _, kc := range n.kindUnits {
		out.UnitsByKind[kc.kind] = kc.units
		out.MsgsByKind[kc.kind] = kc.msgs
		out.BytesByKind[kc.kind] = kc.bytes
	}
	return out
}

// ResetStats zeroes the message accounting and the per-destination
// route-change timestamps (typically called after the initial cold-start
// convergence, before injecting an event to measure). The lifetime event
// count (Stats.Events) is deliberately preserved.
func (n *Network) ResetStats() {
	n.stats = Stats{}
	n.kindUnits = n.kindUnits[:0]
	for i := range n.routeChangedSet {
		n.routeChangedSet[i] = false
		n.routeChangedAt[i] = 0
	}
}

// LastRouteChanges calls f once per destination that had a RouteChanged
// report since the last ResetStats, in ascending dense-index order (a
// deterministic order), with the time of its latest change. The spread
// of these times is the per-destination convergence profile of the
// run's last measured phase.
func (n *Network) LastRouteChanges(f func(dest routing.NodeID, at time.Duration)) {
	for i, set := range n.routeChangedSet {
		if set {
			f(n.idx.ID(i), n.routeChangedAt[i])
		}
	}
}

// Node returns the protocol instance at id (nil if absent), so tests and
// experiments can inspect converged protocol state.
func (n *Network) Node(id routing.NodeID) Protocol {
	i := n.idx.Pos(id)
	if i < 0 {
		return nil
	}
	return n.nodes[i]
}

// FailLink takes the undirected link a—b down at the current simulated
// time: in-flight messages on it are lost and both endpoints receive
// LinkDown. It reports whether the link existed and was up.
func (n *Network) FailLink(a, b routing.NodeID) bool {
	li, ok := n.linkAt[keyOf(a, b)]
	if !ok || !n.links[li].up {
		return false
	}
	n.links[li].up = false
	n.links[li].epoch++
	n.links[li].since = n.now
	span := n.emit(TraceLinkDown, a, b, nil, n.rootCause, 0)
	n.curCause, n.curDepth = span, 0
	n.push(event{kind: evLinkDown, to: int32(n.idx.Pos(a)), from: b, cause: span})
	n.push(event{kind: evLinkDown, to: int32(n.idx.Pos(b)), from: a, cause: span})
	return true
}

// RestoreLink brings the undirected link a—b back up; both endpoints
// receive LinkUp. It reports whether the link existed and was down. It
// refuses while either endpoint is crashed: a link to a dead process
// cannot come up, and RestartNode restores the node's adjacencies
// itself.
func (n *Network) RestoreLink(a, b routing.NodeID) bool {
	li, ok := n.linkAt[keyOf(a, b)]
	if !ok || n.links[li].up {
		return false
	}
	if n.nodeDown[n.idx.Pos(a)] || n.nodeDown[n.idx.Pos(b)] {
		return false
	}
	n.links[li].up = true
	n.links[li].since = n.now
	span := n.emit(TraceLinkUp, a, b, nil, n.rootCause, 0)
	n.curCause, n.curDepth = span, 0
	n.push(event{kind: evLinkUp, to: int32(n.idx.Pos(a)), from: b, cause: span})
	n.push(event{kind: evLinkUp, to: int32(n.idx.Pos(b)), from: a, cause: span})
	return true
}

// Run processes events until the queue drains or maxEvents events have
// run (0 means no limit). It returns the number of events processed and
// whether the network quiesced (queue drained). A protocol that
// oscillates forever will hit the event limit instead of hanging.
func (n *Network) Run(maxEvents int64) (processed int64, quiesced bool) {
	for n.pq.queued > 0 {
		if maxEvents > 0 && processed >= maxEvents {
			return processed, false
		}
		ev := n.pq.pop()
		if ev.at > n.now && len(n.subs) > 0 {
			n.publish(TraceEvent{Kind: TraceInstant, At: n.now})
		}
		n.now = ev.at
		// Load the event's captured causality into the active registers
		// before its handler runs; rootCause stays fixed for the whole
		// event while curCause may advance (deliveries, root operations).
		n.curCause, n.curDepth, n.rootCause = ev.cause, ev.depth, ev.cause
		switch ev.kind {
		case evDeliver:
			ls := &n.links[ev.link]
			switch {
			case !ls.up || ls.epoch != ev.epoch:
				n.stats.Dropped++
				n.emit(TraceDrop, ev.from, n.idx.ID(int(ev.to)), ev.msg, ev.cause, ev.depth)
			case ev.fault&faultDrop != 0:
				n.stats.Dropped++
				n.stats.FaultDrops++
				n.emit(TraceDropFault, ev.from, n.idx.ID(int(ev.to)), ev.msg, ev.cause, ev.depth)
			default:
				span := n.emit(TraceDeliver, ev.from, n.idx.ID(int(ev.to)), ev.msg, ev.cause, ev.depth)
				n.curCause = span
				n.nodes[ev.to].Handle(ev.from, ev.msg)
			}
		case evFunc:
			ev.msg.(timerFn)()
		case evNodeTimer:
			if n.envs[ev.to].gen == ev.epoch {
				ev.msg.(timerFn)()
			} else {
				n.stats.StaleTimers++
			}
		case evStart:
			n.nodes[ev.to].Start(&n.envs[ev.to])
		case evLinkDown:
			n.nodes[ev.to].LinkDown(ev.from)
		case evLinkUp:
			n.nodes[ev.to].LinkUp(ev.from)
		}
		processed++
		n.events++
	}
	// Quiesced: clear the registers so operations driven from outside the
	// event loop (the flip harness calling FailLink between runs) start a
	// fresh parentless root instead of inheriting a stale cause.
	n.curCause, n.curDepth, n.rootCause = 0, 0, 0
	// Give back the cold start's peak once. Releasing on every drain
	// instead would make each later phase regrow its queue from nothing,
	// turning the live-heap saving into allocation and copying.
	if n.cold {
		n.pq, n.cold = eventQueue{}, false
	}
	return processed, true
}

// RunToConvergence runs until quiescence and returns the convergence
// time — the time of the last message transmission, measured from start
// (i.e. the instant after which "no further update messages are sent",
// §5.1) — along with the stats snapshot. The limit guards against
// non-terminating protocols; when hit, the returned error is a
// *ConvergenceError carrying a per-node summary of the pending work, so
// a wedged or oscillating run is diagnosable instead of an opaque event
// count.
func (n *Network) RunToConvergence(maxEvents int64) (time.Duration, Stats, error) {
	_, ok := n.Run(maxEvents)
	if !ok {
		return 0, n.Stats(), n.convergenceError(maxEvents)
	}
	return n.stats.LastSend, n.Stats(), nil
}

// PendingWork summarizes one node's share of the event queue at the
// moment the convergence watchdog fired.
type PendingWork struct {
	Node routing.NodeID
	// Deliveries is the number of messages queued for delivery to the
	// node; ByKind breaks them down by message kind.
	Deliveries int
	// Timers is the number of pending Env.After timers plus control
	// events (start, link up/down notifications) addressed to the node.
	Timers int
	ByKind map[string]int
	// Links is the node's per-adjacency liveness state at the moment the
	// watchdog fired: the detector's session FSM state when the node's
	// protocol reports sessions (SessionReporter), the raw carrier state
	// otherwise. A stall under high loss is then attributable — sessions
	// stuck in init point at detection, not routing.
	Links []LinkSession
}

// LinkSession is one adjacency's liveness state for diagnostics.
type LinkSession struct {
	Peer routing.NodeID
	// State is "up" or "down" for raw carrier state, "up", "init", or
	// "down" for a liveness detector's session FSM.
	State string
	// Since is the simulated time of the state's last transition.
	Since time.Duration
}

// SessionReporter is implemented by liveness-detection wrappers that
// track per-adjacency session state; the convergence watchdog includes
// the report of the outermost one along a node's adapter chain in stall
// diagnostics instead of the raw carrier state.
type SessionReporter interface {
	LinkSessions() []LinkSession
}

func isSessionReporter(p Protocol) bool {
	_, ok := p.(SessionReporter)
	return ok
}

// ConvergenceError reports a network that failed to quiesce within its
// event budget. It carries the watchdog diagnostics: how much work was
// still queued and for whom, so callers can tell an oscillating protocol
// (deliveries keep regenerating) from a wedged timer loop.
type ConvergenceError struct {
	// MaxEvents is the budget that was exhausted; SimTime is the
	// simulated clock when the watchdog fired.
	MaxEvents int64
	SimTime   time.Duration
	// QueueLen is the total number of events still pending, of which
	// DetachedTimers were Network.Schedule closures attributable to no
	// node. Pending lists the per-node breakdown, busiest node first.
	QueueLen       int
	DetachedTimers int
	Pending        []PendingWork
}

// Error renders the diagnostic summary, capped at the eight busiest
// nodes.
func (e *ConvergenceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: no convergence after %d events (t=%v): %d events pending",
		e.MaxEvents, e.SimTime, e.QueueLen)
	if e.DetachedTimers > 0 {
		fmt.Fprintf(&b, ", %d detached timers", e.DetachedTimers)
	}
	for i, p := range e.Pending {
		if i == 8 {
			fmt.Fprintf(&b, "; … %d more nodes", len(e.Pending)-i)
			break
		}
		fmt.Fprintf(&b, "; node %v: %d deliveries, %d timers", p.Node, p.Deliveries, p.Timers)
		kinds := make([]string, 0, len(p.ByKind))
		for k := range p.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, " [%s×%d]", k, p.ByKind[k])
		}
		renderLinkSessions(&b, p.Links)
	}
	return b.String()
}

// renderLinkSessions appends a compact per-adjacency session summary:
// every non-up session (those explain stalls) plus up-session count,
// capped so a high-degree node cannot flood the message.
func renderLinkSessions(b *strings.Builder, links []LinkSession) {
	if len(links) == 0 {
		return
	}
	const maxShown = 6
	up, shown, omitted := 0, 0, 0
	b.WriteString(" links[")
	for _, s := range links {
		if s.State == "up" {
			up++
			continue
		}
		if shown == maxShown {
			omitted++
			continue
		}
		if shown > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(b, "%v:%s@%v", s.Peer, s.State, s.Since)
		shown++
	}
	if omitted > 0 {
		fmt.Fprintf(b, " +%d more", omitted)
	}
	if up > 0 {
		if shown > 0 || omitted > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(b, "%d up", up)
	}
	b.WriteString("]")
}

// convergenceError scans the event queue into a *ConvergenceError.
func (n *Network) convergenceError(maxEvents int64) error {
	e := &ConvergenceError{MaxEvents: maxEvents, SimTime: n.now, QueueLen: n.pq.queued}
	byNode := make(map[int32]*PendingWork)
	at := func(pos int32) *PendingWork {
		p := byNode[pos]
		if p == nil {
			p = &PendingWork{Node: n.idx.ID(int(pos)), ByKind: make(map[string]int)}
			byNode[pos] = p
		}
		return p
	}
	n.pq.each(func(ev *event) {
		switch ev.kind {
		case evDeliver:
			p := at(ev.to)
			p.Deliveries++
			p.ByKind[ev.msg.Kind()]++
		case evFunc:
			e.DetachedTimers++
		default: // node timers and control events
			at(ev.to).Timers++
		}
	})
	for pos, p := range byNode {
		// Attach the node's liveness view: detector sessions when a layer
		// of its protocol reports them, raw carrier state otherwise.
		if rep, ok := peel(n.nodes[pos], isSessionReporter).(SessionReporter); ok {
			p.Links = rep.LinkSessions()
		} else {
			for _, ar := range n.envs[pos].adj {
				ls := &n.links[ar.link]
				st := "down"
				if ls.up {
					st = "up"
				}
				p.Links = append(p.Links, LinkSession{Peer: ar.id, State: st, Since: ls.since})
			}
		}
		e.Pending = append(e.Pending, *p)
	}
	sort.Slice(e.Pending, func(i, j int) bool {
		ti := e.Pending[i].Deliveries + e.Pending[i].Timers
		tj := e.Pending[j].Deliveries + e.Pending[j].Timers
		if ti != tj {
			return ti > tj
		}
		return e.Pending[i].Node < e.Pending[j].Node
	})
	return e
}
