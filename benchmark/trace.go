package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
)

// The tracer times every crossing of a layer boundary from outside the
// layers: a sim.Builder combinator (tracer.wrap) puts a tracedNode
// around the sim.Protocol a layer builds and a tracedEnv around the
// sim.Env it is handed. Nothing under internal/ knows it is there, and
// both wrappers are transparent to the Inner()/UnwrapEnv() peeling that
// invariant, forward and sim.BaseEnv do.

// op is the kind of boundary crossing a span times.
type op uint8

const (
	opStart op = iota
	opHandle
	opLinkDown
	opLinkUp
	opTimer
	opSend
	opAfter
	opRouteChanged
	opDeliver
	numOps
)

var opNames = [numOps]string{"start", "handle", "link_down", "link_up", "timer", "send", "after", "route_changed", "deliver"}

// Span is one timed boundary crossing as written to the JSONL file.
// Spans of one kernel dispatch share a root: Parent is 0 for the root.
type Span struct {
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent"`
	Layer   string         `json:"layer"`
	Op      string         `json:"op"`
	Node    routing.NodeID `json:"node"`
	StartNS int64          `json:"start_ns"`
	EndNS   int64          `json:"end_ns"`
}

// spanAgg is the online aggregate of one (layer, op).
type spanAgg struct {
	calls   int64
	selfNS  int64
	selfLog []int64 // per-call self time, kept for opHandle only (percentiles)
}

type frame struct {
	id      uint64
	layer   int
	op      op
	node    routing.NodeID
	startNS int64
	childNS int64
}

const (
	// One dispatch in treeEvery keeps its whole span tree, until
	// treeCap spans are held; the rest only feed the aggregates.
	treeEvery = 64
	treeCap   = 200_000
	// One kernel-bound message in msgEvery is kept for the wire probes.
	msgEvery = 16
	msgCap   = 4096
)

type tracer struct {
	now    func() int64 // nanoseconds on a monotonic clock
	layers []string
	agg    [][numOps]spanAgg
	stack  []frame
	nextID uint64

	roots  int64
	rootNS int64 // total duration of root spans
	runNS  int64 // wall time inside Network.Run, see bench.phase
	spans  int64

	// afterDepth > 0 while an After call is passing down through the
	// envs of lower layers; only the topmost wraps the callback.
	afterDepth int

	keep bool
	kept []Span

	sent int64
	msgs []sim.Message
}

func newTracer() *tracer {
	epoch := time.Now()
	t := &tracer{now: func() int64 { return int64(time.Since(epoch)) }}
	t.layer("sim") // index 0: the kernel boundary
	return t
}

func (t *tracer) layer(name string) int {
	for i, l := range t.layers {
		if l == name {
			return i
		}
	}
	t.layers = append(t.layers, name)
	t.agg = append(t.agg, [numOps]spanAgg{})
	return len(t.layers) - 1
}

func (t *tracer) begin(layer int, o op, node routing.NodeID) {
	if len(t.stack) == 0 {
		t.roots++
		t.keep = t.roots%treeEvery == 0 && len(t.kept) < treeCap
	}
	t.nextID++
	t.stack = append(t.stack, frame{id: t.nextID, layer: layer, op: o, node: node,
		startNS: t.now()})
}

// end closes the innermost open span: its self time is its duration
// minus the durations of the spans that ran inside it.
func (t *tracer) end() {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - f.startNS
	a := &t.agg[f.layer][f.op]
	a.calls++
	a.selfNS += dur - f.childNS
	if f.op == opHandle {
		a.selfLog = append(a.selfLog, dur-f.childNS)
	}
	t.spans++
	var parent uint64
	if n := len(t.stack); n > 0 {
		t.stack[n-1].childNS += dur
		parent = t.stack[n-1].id
	} else {
		t.rootNS += dur
	}
	if t.keep {
		t.kept = append(t.kept, Span{ID: f.id, Parent: parent, Layer: t.layers[f.layer],
			Op: opNames[f.op], Node: f.node, StartNS: f.startNS, EndNS: now})
	}
}

func (t *tracer) get(layer string, o op) *spanAgg {
	for i, l := range t.layers {
		if l == layer {
			return &t.agg[i][o]
		}
	}
	return &spanAgg{}
}

func (t *tracer) selfSeconds(layer string, ops ...op) float64 {
	var ns int64
	for _, o := range ops {
		ns += t.get(layer, o).selfNS
	}
	return float64(ns) / 1e9
}

// writeSpans writes the kept span trees as JSONL.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.kept {
		if err := enc.Encode(&t.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap returns b with its upcalls timed as layer up and the calls it
// makes on its Env timed as layer below (the layer that serves them).
func (t *tracer) wrap(up, below string, b sim.Builder) sim.Builder {
	upL, belowL := t.layer(up), t.layer(below)
	return func(env sim.Env) sim.Protocol {
		te := &tracedEnv{Env: env, t: t, below: belowL, owner: upL, node: env.Self()}
		return &tracedNode{inner: b(te), env: te, t: t, layer: upL, node: te.node}
	}
}

type tracedNode struct {
	inner sim.Protocol
	env   *tracedEnv
	t     *tracer
	layer int
	node  routing.NodeID
}

var _ sim.Protocol = (*tracedNode)(nil)

// Inner lets invariant.Unwrap and forward reach the protocol's RIB.
func (n *tracedNode) Inner() sim.Protocol { return n.inner }

func (n *tracedNode) Start(env sim.Env) {
	n.env.Env = env
	n.t.begin(n.layer, opStart, n.node)
	n.inner.Start(n.env)
	n.t.end()
}

func (n *tracedNode) Handle(from routing.NodeID, msg sim.Message) {
	n.t.begin(n.layer, opHandle, n.node)
	n.inner.Handle(from, msg)
	n.t.end()
}

func (n *tracedNode) LinkDown(peer routing.NodeID) {
	n.t.begin(n.layer, opLinkDown, n.node)
	n.inner.LinkDown(peer)
	n.t.end()
}

func (n *tracedNode) LinkUp(peer routing.NodeID) {
	n.t.begin(n.layer, opLinkUp, n.node)
	n.inner.LinkUp(peer)
	n.t.end()
}

type tracedEnv struct {
	sim.Env
	t     *tracer
	below int // the layer that serves this env's calls
	owner int // the layer that makes them
	node  routing.NodeID
}

// UnwrapEnv implements sim.EnvUnwrapper, so sim.Reliable's accounting
// still reaches the kernel's env through sim.BaseEnv.
func (e *tracedEnv) UnwrapEnv() sim.Env { return e.Env }

func (e *tracedEnv) Send(to routing.NodeID, msg sim.Message) {
	if e.below == 0 {
		if e.t.sent%msgEvery == 0 && len(e.t.msgs) < msgCap {
			e.t.msgs = append(e.t.msgs, msg)
		}
		e.t.sent++
	}
	e.t.begin(e.below, opSend, e.node)
	e.Env.Send(to, msg)
	e.t.end()
}

// After times the scheduling call and wraps fn so that its firing is a
// root span of the layer that armed the timer.
func (e *tracedEnv) After(d time.Duration, fn func()) {
	t := e.t
	if t.afterDepth == 0 {
		inner := fn
		fn = func() {
			t.begin(e.owner, opTimer, e.node)
			inner()
			t.end()
		}
	}
	t.begin(e.below, opAfter, e.node)
	t.afterDepth++
	e.Env.After(d, fn)
	t.afterDepth--
	t.end()
}

func (e *tracedEnv) RouteChanged(dest routing.NodeID) {
	e.t.begin(e.below, opRouteChanged, e.node)
	e.Env.RouteChanged(dest)
	e.t.end()
}

// RouteChangedVia and NotePLFalsePositive are the two optional methods
// protocols reach by type-asserting their Env; the embedded interface
// would hide them, as it does in sim.Reliable's and liveness's envs.
func (e *tracedEnv) RouteChangedVia(dest, oldNext, newNext routing.NodeID) {
	e.t.begin(e.below, opRouteChanged, e.node)
	sim.RouteChangedVia(e.Env, dest, oldNext, newNext)
	e.t.end()
}

func (e *tracedEnv) NotePLFalsePositive(dest routing.NodeID) {
	if noter, ok := e.Env.(interface{ NotePLFalsePositive(routing.NodeID) }); ok {
		noter.NotePLFalsePositive(dest)
	}
}

// tracedInjector times the fault injector the kernel consults on every
// send; it is re-installed with Network.SetInjector after faults.Attach.
type tracedInjector struct {
	inner sim.Injector
	t     *tracer
	layer int
}

func (i *tracedInjector) Deliver(from, to routing.NodeID, msg sim.Message) sim.FaultDecision {
	i.t.begin(i.layer, opDeliver, from)
	d := i.inner.Deliver(from, to, msg)
	i.t.end()
	return d
}
