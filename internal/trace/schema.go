// Package trace owns the simulator's JSONL event trace: the writer
// (Collector, Chunk), the validating reader (Validate) and the causal
// analysis built on that reader (Explain). The schema's event kinds —
// each one's name, whether it carries a message and its depth rule —
// are written once, in the kinds table below.
//
// A trace is an ordered sequence of chunks, one per independent
// simulation (an experiment harness job); each chunk is a header line
// followed by its simulator events in virtual-time order. Chunks are
// buffered independently and concatenated in creation order, so a trace
// written by a parallel run is byte-identical to the serial run's — the
// property the determinism guard in internal/experiments pins.
//
// Line formats (one JSON object per line):
//
//	{"chunk":3,"label":"fig6.centaur","seed":12}
//	{"t":1234567,"k":"send","f":3,"o":9,"m":"bgp.update","u":1,"b":34}
//	{"t":1300000,"k":"link-down","f":3,"o":9}
//	{"t":1410000,"k":"route","f":7,"o":9}
//
// t is the virtual timestamp in nanoseconds (monotone nondecreasing
// within a chunk), k the event kind, f/o the from/to node IDs, and for
// message events m/u/b the message kind, unit count, and wire bytes.
// Validate checks exactly this schema.
//
// # Schema v2: causal provenance
//
// A collector created with NewCollectorV2 emits schema version 2, which
// layers causal provenance on the v1 format. The chunk header gains a
// "v" field and events gain span/parent/depth fields:
//
//	{"chunk":3,"v":2,"label":"fig6.centaur","seed":12}
//	{"t":1300000,"k":"link-down","f":3,"o":9,"c":41,"d":0}
//	{"t":1300000,"k":"send","f":3,"o":5,"m":"bgp.update","u":1,"b":34,"c":42,"p":41,"d":1}
//	{"t":1410000,"k":"route","f":7,"o":9,"c":57,"p":55,"d":3,"oh":3,"nh":8}
//
//	c  span ID: trace-unique within the chunk, dense from 1 in emission
//	   order (so strictly increasing down the chunk).
//	p  parent span: the span of the event that caused this one. Omitted
//	   when the cause is simulation startup (no root event). A parent
//	   always precedes its children within the chunk.
//	d  causal depth: message hops from the root link/node event, by the
//	   kind's depth rule (see depthRule).
//	oh/nh  on "route" events from protocols that report next hops
//	   (BGP, Centaur): the old and new next-hop node IDs, 0 meaning no
//	   route. Omitted together when the protocol doesn't report them
//	   (OSPF — SPF is lazy, so next hops aren't known at update time).
//
// v1 chunks must not carry any provenance field; a trace may mix v1 and
// v2 chunks (each chunk declares its own version).
package trace

import "centaur/internal/sim"

// The notes the layers above the simulator publish (sim.Env.Emit,
// sim.Network.Emit), by name.
const (
	// NotePLFalsePositive is a Bloom false-positive hit in a compressed
	// Permission List check, published by the Centaur node deriving (To
	// is the destination whose check hit; the path was denied).
	NotePLFalsePositive = "pl-fp"
	// NoteAdvInject is the attachment of an adversarial attack before
	// the run starts (From is the attacker, To its victim destination or
	// 0). A root: no parent, depth 0.
	NoteAdvInject = "adv-inject"
	// NoteAdvBad is the adversarial detector flagging a just-installed
	// route as contaminated (From is the node, To the destination),
	// published right after the route event and parented like it.
	NoteAdvBad = "adv-bad"
)

// depthRule says how an event's depth d follows from its parent's
// depth pd, and whether the event needs a parent. It is checked on
// every v2 chunk.
type depthRule uint8

const (
	// root events originate causal chains: d = 0. The parent, when
	// present, is the root operation that batched them (a crash parents
	// its adjacency link-downs).
	root depthRule = iota
	// hop is a send: d = pd + 1, or 1 without a parent.
	hop
	// carried events act on a send in flight (its delivery, the fault
	// injector's records): they need a parent and d = pd.
	carried
	// caused events carry their cause's depth: d = pd, or 0 without a
	// parent.
	caused
	// dropped is a message lost to a down link: a refused send (d = pd +
	// 1) or an in-flight loss (d = pd, the send's depth); pd is 0
	// without a parent.
	dropped
)

// kind indexes kinds. The simulator's own kinds sit at their
// sim.TraceKind value; the notes follow sim.TraceInstant.
type kind uint8

const (
	kindPLFalsePositive = kind(sim.TraceInstant) + 1 + iota
	kindAdvInject
	kindAdvBad
)

// kinds is the schema's closed set of event kinds. The unnamed entries
// (sim.TraceNote, sim.TraceInstant) are not trace lines: a note is
// written under its own name, and the end of an instant is skipped.
var kinds = [...]struct {
	name string
	msg  bool // events carry a message: m/u/b
	rule depthRule
}{
	sim.TraceSend:        {"send", true, hop},
	sim.TraceDeliver:     {"deliver", true, carried},
	sim.TraceDrop:        {"drop", true, dropped},
	sim.TraceLinkDown:    {"link-down", false, root},
	sim.TraceLinkUp:      {"link-up", false, root},
	sim.TraceRouteChange: {"route", false, caused},
	sim.TraceFaultLoss:   {"fault-loss", true, carried},
	sim.TraceFaultDup:    {"fault-dup", true, carried},
	sim.TraceFaultJitter: {"fault-jitter", true, carried},
	sim.TraceDropFault:   {"drop-fault", true, carried},
	sim.TraceCrash:       {"crash", false, root},
	sim.TraceRestart:     {"restart", false, root},
	kindPLFalsePositive:  {NotePLFalsePositive, false, caused},
	kindAdvInject:        {NoteAdvInject, false, root},
	kindAdvBad:           {NoteAdvBad, false, caused},
}

// kindOf resolves a kind name read from a trace line.
var kindOf = func() map[string]kind {
	m := make(map[string]kind, len(kinds))
	for k, info := range kinds {
		if info.name != "" {
			m[info.name] = kind(k)
		}
	}
	return m
}()
