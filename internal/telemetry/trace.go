// Structured JSONL event tracing. A trace is an ordered sequence of
// chunks, one per independent simulation (an experiment harness job);
// each chunk is a header line followed by its simulator events in
// virtual-time order. Chunks are buffered independently and concatenated
// in creation order, so a trace written by a parallel run is
// byte-identical to the serial run's — the property the determinism
// guard in internal/experiments pins.
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
// ValidateTrace checks exactly this schema.
//
// # Schema v2: causal provenance
//
// A collector created with NewTraceCollectorV2 emits schema version 2,
// which layers causal provenance on the v1 format. The chunk header
// gains a "v" field and events gain span/parent/depth fields:
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
//	d  causal depth: message hops from the root link/node event (root
//	   events are depth 0; a send is its cause's depth + 1; a delivery
//	   and any fault records inherit the send's depth).
//	oh/nh  on "route" events from protocols that report next hops
//	   (BGP, Centaur): the old and new next-hop node IDs, 0 meaning no
//	   route. Omitted together when the protocol doesn't report them
//	   (OSPF — SPF is lazy, so next hops aren't known at update time).
//
// Depth rules by kind, checked by ValidateTrace: link-down, link-up,
// crash, restart and adv-inject (the pre-run attachment of an
// adversarial attack) are roots (d=0; p, when present, is the root
// operation that batched them — e.g. a crash's adjacency link-downs
// parent to the crash). A send has d = parent depth + 1 (d=1 when p is
// omitted). deliver, fault-loss, fault-dup, fault-jitter and drop-fault
// require p and d equal to the parent's depth. route, pl-fp and
// adv-bad (the adversarial detector flagging a contaminated RIB entry)
// carry their cause's depth (d=0 when p is omitted). drop has two shapes — a
// refused send (d = cause depth + 1) and an in-flight loss (d = send
// depth) — so only its parent reference is checked.
//
// v1 chunks must not carry any provenance field; a trace may mix v1 and
// v2 chunks (each chunk declares its own version).

package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"

	"centaur/internal/sim"
)

// TraceCollector accumulates the ordered chunk list of one trace. Create
// chunks with Chunk in the deterministic order jobs are constructed;
// each chunk may then be written to concurrently with the others (but a
// single chunk has one writer: the job's goroutine). A nil collector
// hands out nil chunks, whose Observe is a no-op.
type TraceCollector struct {
	mu     sync.Mutex
	prov   bool
	chunks []*TraceChunk
}

// NewTraceCollector returns an empty collector emitting schema v1.
func NewTraceCollector() *TraceCollector { return &TraceCollector{} }

// NewTraceCollectorV2 returns an empty collector emitting schema v2
// (causal provenance): its chunks write the span fields the simulator
// assigns to every event, which v1 chunks omit.
func NewTraceCollectorV2() *TraceCollector { return &TraceCollector{prov: true} }

// Chunk appends a new chunk labeled with the job's series name and seed
// and returns it. The header line is emitted immediately. Returns nil on
// a nil collector.
func (tc *TraceCollector) Chunk(label string, seed int64) *TraceChunk {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c := &TraceChunk{prov: tc.prov}
	c.buf = append(c.buf, `{"chunk":`...)
	c.buf = strconv.AppendInt(c.buf, int64(len(tc.chunks)), 10)
	if tc.prov {
		c.buf = append(c.buf, `,"v":2`...)
	}
	c.buf = append(c.buf, `,"label":`...)
	c.buf = strconv.AppendQuote(c.buf, label)
	c.buf = append(c.buf, `,"seed":`...)
	c.buf = strconv.AppendInt(c.buf, seed, 10)
	c.buf = append(c.buf, "}\n"...)
	tc.chunks = append(tc.chunks, c)
	return c
}

// WriteTo writes the whole trace — every chunk in creation order — to w.
func (tc *TraceCollector) WriteTo(w io.Writer) (int64, error) {
	if tc == nil {
		return 0, nil
	}
	tc.mu.Lock()
	chunks := tc.chunks
	tc.mu.Unlock()
	var n int64
	for _, c := range chunks {
		m, err := w.Write(c.buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Bytes returns the concatenated trace (for tests and diffing).
func (tc *TraceCollector) Bytes() []byte {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	var out []byte
	for _, c := range tc.chunks {
		out = append(out, c.buf...)
	}
	return out
}

// TraceChunk is one simulation's event stream. Observe is a
// sim.Network subscriber; it must be called from a single goroutine
// (the simulator is single-threaded, so subscribing it with
// sim.Network.Observe satisfies this). A nil chunk no-ops.
type TraceChunk struct {
	prov bool
	buf  []byte
}

// Observe appends one simulator event as a JSONL line. The end of an
// instant (sim.TraceInstant) is not a trace line and is skipped.
func (c *TraceChunk) Observe(ev sim.TraceEvent) {
	if c == nil || ev.Kind == sim.TraceInstant {
		return
	}
	b := c.buf
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"k":"`...)
	b = append(b, ev.Kind.String()...) // fixed strings, no escaping needed
	b = append(b, `","f":`...)
	b = strconv.AppendInt(b, int64(ev.From), 10)
	b = append(b, `,"o":`...)
	b = strconv.AppendInt(b, int64(ev.To), 10)
	if ev.Msg != nil {
		b = append(b, `,"m":`...)
		b = strconv.AppendQuote(b, ev.Msg.Kind())
		b = append(b, `,"u":`...)
		b = strconv.AppendInt(b, int64(ev.Msg.Units()), 10)
		b = append(b, `,"b":`...)
		wireBytes := 0
		if bs, ok := ev.Msg.(sim.ByteSizer); ok {
			wireBytes = bs.WireBytes()
		}
		b = strconv.AppendInt(b, int64(wireBytes), 10)
	}
	if c.prov {
		b = append(b, `,"c":`...)
		b = strconv.AppendUint(b, ev.Span, 10)
		if ev.Parent != 0 {
			b = append(b, `,"p":`...)
			b = strconv.AppendUint(b, ev.Parent, 10)
		}
		b = append(b, `,"d":`...)
		b = strconv.AppendInt(b, int64(ev.Depth), 10)
		if ev.HasVia {
			b = append(b, `,"oh":`...)
			b = strconv.AppendInt(b, int64(ev.OldNext), 10)
			b = append(b, `,"nh":`...)
			b = strconv.AppendInt(b, int64(ev.NewNext), 10)
		}
	}
	b = append(b, "}\n"...)
	c.buf = b
}

// TraceSummary reports what a validated trace contains.
type TraceSummary struct {
	Chunks int
	Events int
	// ByKind counts events per kind ("send", "deliver", ...).
	ByKind map[string]int
	// ProvenanceChunks counts chunks declaring schema v2.
	ProvenanceChunks int
	// UnconsumedLossDecisions counts fault-loss decisions left unpaired
	// with a drop-fault at their chunk's end. Nonzero is legal — a link
	// flap can beat the fault to the delivery, which then traces as a
	// plain "drop" — but a large count relative to drop-fault events
	// suggests the loss plumbing is miswired.
	UnconsumedLossDecisions int
}

// traceLine is the decoded superset of both line shapes; pointer fields
// distinguish absent from zero.
type traceLine struct {
	Chunk *int64  `json:"chunk"`
	V     *int64  `json:"v"`
	Label *string `json:"label"`
	Seed  *int64  `json:"seed"`
	T     *int64  `json:"t"`
	K     *string `json:"k"`
	F     *int64  `json:"f"`
	O     *int64  `json:"o"`
	M     *string `json:"m"`
	U     *int64  `json:"u"`
	B     *int64  `json:"b"`
	C     *int64  `json:"c"`
	P     *int64  `json:"p"`
	D     *int64  `json:"d"`
	OH    *int64  `json:"oh"`
	NH    *int64  `json:"nh"`
}

// traceKinds is the closed set of event kinds and whether each carries a
// message payload (m/u/b fields).
var traceKinds = map[string]bool{
	"send":         true,
	"deliver":      true,
	"drop":         true,
	"link-down":    false,
	"link-up":      false,
	"route":        false,
	"fault-loss":   true,
	"fault-dup":    true,
	"fault-jitter": true,
	"drop-fault":   true,
	"crash":        false,
	"restart":      false,
	"pl-fp":        false,
	"adv-inject":   false,
	"adv-bad":      false,
}

// rootKinds are the event kinds that originate causal chains: their
// depth is 0 and their parent, when present, is the root operation that
// batched them (a crash parents its adjacency link-downs).
var rootKinds = map[string]bool{
	"link-down":  true,
	"link-up":    true,
	"crash":      true,
	"restart":    true,
	"adv-inject": true,
}

// ValidateTrace checks a JSONL trace against the golden schema: every
// line parses, chunk headers carry chunk/label/seed with sequential
// chunk ids, events carry t/k/f/o (plus m/u/b for message kinds) with a
// known kind and nonnegative, per-chunk monotone nondecreasing
// timestamps, and no event precedes the first chunk header. Fault drops
// are cross-checked against injector decisions: every "drop-fault"
// event (the delivery-time drop) must consume a preceding "fault-loss"
// record (the send-time decision) for the same (from, to, message kind)
// within its chunk. Leftover decisions are legal — a link flap can beat
// the fault to the delivery, which then traces as a plain "drop" — and
// are tallied in TraceSummary.UnconsumedLossDecisions.
//
// Chunks declaring schema v2 additionally have their provenance checked
// for referential integrity: span IDs strictly increase within the
// chunk, every parent reference resolves to an earlier span of the same
// chunk (a parent precedes its children), and depths obey the per-kind
// rules in the package comment. v1 chunks must not carry provenance
// fields. It returns a summary of the valid trace or an error naming
// the offending line.
func ValidateTrace(r io.Reader) (TraceSummary, error) {
	sum := TraceSummary{ByKind: make(map[string]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	lastT := int64(-1)
	inChunk := false
	chunkProv := false
	lastSpan := int64(0)
	lossDecisions := make(map[string]int) // per-chunk (f,o,m) → pending decisions
	spanDepth := make(map[int64]int64)    // per-chunk span → depth, for parent checks
	flushLoss := func() {
		for _, n := range lossDecisions {
			sum.UnconsumedLossDecisions += n
		}
		clear(lossDecisions)
	}
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			return sum, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		if tl.Chunk != nil {
			if tl.T != nil || tl.K != nil {
				return sum, fmt.Errorf("trace line %d: both chunk header and event fields", lineNo)
			}
			if tl.Label == nil || tl.Seed == nil {
				return sum, fmt.Errorf("trace line %d: chunk header missing label/seed", lineNo)
			}
			if *tl.Chunk != int64(sum.Chunks) {
				return sum, fmt.Errorf("trace line %d: chunk id %d, want %d", lineNo, *tl.Chunk, sum.Chunks)
			}
			if tl.V != nil && *tl.V != 1 && *tl.V != 2 {
				return sum, fmt.Errorf("trace line %d: unknown trace schema version %d", lineNo, *tl.V)
			}
			chunkProv = tl.V != nil && *tl.V == 2
			if chunkProv {
				sum.ProvenanceChunks++
			}
			sum.Chunks++
			lastT = -1
			lastSpan = 0
			inChunk = true
			flushLoss()
			clear(spanDepth)
			continue
		}
		if tl.T == nil || tl.K == nil || tl.F == nil || tl.O == nil {
			return sum, fmt.Errorf("trace line %d: event missing t/k/f/o", lineNo)
		}
		if !inChunk {
			return sum, fmt.Errorf("trace line %d: event before first chunk header", lineNo)
		}
		hasMsg, known := traceKinds[*tl.K]
		if !known {
			return sum, fmt.Errorf("trace line %d: unknown kind %q", lineNo, *tl.K)
		}
		if *tl.T < 0 {
			return sum, fmt.Errorf("trace line %d: negative timestamp %d", lineNo, *tl.T)
		}
		if *tl.T < lastT {
			return sum, fmt.Errorf("trace line %d: timestamp %d before %d — not monotone", lineNo, *tl.T, lastT)
		}
		lastT = *tl.T
		if hasMsg {
			if tl.M == nil || tl.U == nil || tl.B == nil {
				return sum, fmt.Errorf("trace line %d: %s event missing m/u/b", lineNo, *tl.K)
			}
			if *tl.U < 0 || *tl.B < 0 {
				return sum, fmt.Errorf("trace line %d: negative units/bytes", lineNo)
			}
		}
		if err := validateProvenance(&tl, chunkProv, &lastSpan, spanDepth); err != nil {
			return sum, fmt.Errorf("trace line %d: %w", lineNo, err)
		}
		switch *tl.K {
		case "fault-loss":
			lossDecisions[lossKey(*tl.F, *tl.O, *tl.M)]++
		case "drop-fault":
			key := lossKey(*tl.F, *tl.O, *tl.M)
			if lossDecisions[key] == 0 {
				return sum, fmt.Errorf("trace line %d: drop-fault %d→%d %q without a matching fault-loss decision", lineNo, *tl.F, *tl.O, *tl.M)
			}
			lossDecisions[key]--
		}
		sum.Events++
		sum.ByKind[*tl.K]++
	}
	if err := sc.Err(); err != nil {
		return sum, fmt.Errorf("trace: %w", err)
	}
	flushLoss()
	return sum, nil
}

// validateProvenance checks one event's schema-v2 fields (or their
// absence, in a v1 chunk) and records its span for later parent
// references. lastSpan and spanDepth are per-chunk state owned by
// ValidateTrace.
func validateProvenance(tl *traceLine, chunkProv bool, lastSpan *int64, spanDepth map[int64]int64) error {
	if !chunkProv {
		if tl.C != nil || tl.P != nil || tl.D != nil || tl.OH != nil || tl.NH != nil {
			return fmt.Errorf("provenance fields in a v1 chunk")
		}
		return nil
	}
	if tl.C == nil || tl.D == nil {
		return fmt.Errorf("%s event in a v2 chunk missing c/d", *tl.K)
	}
	if *tl.C <= *lastSpan {
		return fmt.Errorf("span %d not after previous span %d", *tl.C, *lastSpan)
	}
	*lastSpan = *tl.C
	if *tl.D < 0 {
		return fmt.Errorf("negative depth %d", *tl.D)
	}
	parentDepth := int64(-1) // -1: no parent
	if tl.P != nil {
		pd, ok := spanDepth[*tl.P]
		if !ok {
			return fmt.Errorf("parent span %d does not precede span %d", *tl.P, *tl.C)
		}
		parentDepth = pd
	}
	k := *tl.K
	switch {
	case rootKinds[k]:
		if *tl.D != 0 {
			return fmt.Errorf("root %s event with depth %d, want 0", k, *tl.D)
		}
	case k == "send":
		want := int64(1)
		if tl.P != nil {
			want = parentDepth + 1
		}
		if *tl.D != want {
			return fmt.Errorf("send depth %d, want %d (parent depth + 1)", *tl.D, want)
		}
	case k == "deliver" || k == "fault-loss" || k == "fault-dup" ||
		k == "fault-jitter" || k == "drop-fault":
		if tl.P == nil {
			return fmt.Errorf("%s event without a parent send span", k)
		}
		if *tl.D != parentDepth {
			return fmt.Errorf("%s depth %d, want parent's %d", k, *tl.D, parentDepth)
		}
	case k == "route" || k == "pl-fp" || k == "adv-bad":
		want := int64(0)
		if tl.P != nil {
			want = parentDepth
		}
		if *tl.D != want {
			return fmt.Errorf("%s depth %d, want cause's %d", k, *tl.D, want)
		}
	case k == "drop":
		// Two legal shapes (refused send: cause depth + 1; in-flight
		// loss: the send's depth) — only the parent reference above is
		// checked.
	}
	if tl.OH != nil != (tl.NH != nil) {
		return fmt.Errorf("oh/nh must appear together")
	}
	if tl.OH != nil {
		if k != "route" {
			return fmt.Errorf("oh/nh on a %s event (route only)", k)
		}
		if *tl.OH < 0 || *tl.NH < 0 {
			return fmt.Errorf("negative next hop")
		}
	}
	spanDepth[*tl.C] = *tl.D
	return nil
}

// lossKey identifies a fault-loss decision for pairing with its drop.
func lossKey(f, o int64, m string) string {
	return strconv.FormatInt(f, 10) + "|" + strconv.FormatInt(o, 10) + "|" + m
}
