// The validating reader: Validate runs it over a whole trace, and
// Explain analyses what it hands back, line by line.

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"centaur/internal/sim"
)

// Summary reports what a validated trace contains.
type Summary struct {
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

// line is the decoded superset of both line shapes; pointer fields
// distinguish absent from zero.
type line struct {
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

// reader checks a trace line by line against the schema. It holds the
// per-chunk state the checks need and the running summary.
type reader struct {
	sc     *bufio.Scanner
	lineNo int
	sum    Summary
	counts [len(kinds)]int // events per kind

	inChunk bool
	prov    bool  // the current chunk declares schema v2
	lastT   int64 // the chunk's latest timestamp
	// depths[c-1] is the depth of span c of the current v2 chunk; spans
	// are dense from 1, so the next span is len(depths)+1.
	depths []int64
	// loss counts the chunk's pending fault-loss decisions by (f, o, m).
	loss map[string]int
}

func newReader(r io.Reader) *reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &reader{sc: sc, sum: Summary{ByKind: make(map[string]int)}, loss: make(map[string]int)}
}

// next reads and checks the next chunk header or event. For an event
// it also returns the event's kind. At the end of a valid trace it
// returns io.EOF, and the summary is complete. Any other error names
// the offending line.
func (rd *reader) next() (*line, kind, error) {
	for rd.sc.Scan() {
		rd.lineNo++
		text := rd.sc.Bytes()
		if len(text) == 0 {
			continue
		}
		l := new(line)
		if err := json.Unmarshal(text, l); err != nil {
			return nil, 0, rd.errorf("%w", err)
		}
		if l.Chunk != nil {
			return l, 0, rd.header(l)
		}
		k, err := rd.event(l)
		return l, k, err
	}
	if err := rd.sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("trace: %w", err)
	}
	rd.endChunk()
	for k, n := range rd.counts {
		if n > 0 {
			rd.sum.ByKind[kinds[k].name] = n
		}
	}
	return nil, 0, io.EOF
}

func (rd *reader) errorf(format string, args ...any) error {
	return fmt.Errorf("trace line %d: "+format, append([]any{rd.lineNo}, args...)...)
}

// header checks a chunk header and starts the chunk.
func (rd *reader) header(l *line) error {
	if l.T != nil || l.K != nil {
		return rd.errorf("both chunk header and event fields")
	}
	if l.Label == nil || l.Seed == nil {
		return rd.errorf("chunk header missing label/seed")
	}
	if *l.Chunk != int64(rd.sum.Chunks) {
		return rd.errorf("chunk id %d, want %d", *l.Chunk, rd.sum.Chunks)
	}
	if l.V != nil && *l.V != 1 && *l.V != 2 {
		return rd.errorf("unknown trace schema version %d", *l.V)
	}
	rd.endChunk()
	rd.prov = l.V != nil && *l.V == 2
	if rd.prov {
		rd.sum.ProvenanceChunks++
	}
	rd.sum.Chunks++
	rd.inChunk = true
	rd.lastT = -1
	rd.depths = rd.depths[:0]
	return nil
}

// endChunk tallies the chunk's unconsumed loss decisions.
func (rd *reader) endChunk() {
	for _, n := range rd.loss {
		rd.sum.UnconsumedLossDecisions += n
	}
	clear(rd.loss)
}

// event checks one event line against the current chunk. Fault drops
// are cross-checked against injector decisions: every "drop-fault"
// event (the delivery-time drop) must consume a preceding "fault-loss"
// record (the send-time decision) for the same (from, to, message kind)
// within its chunk.
func (rd *reader) event(l *line) (kind, error) {
	if l.T == nil || l.K == nil || l.F == nil || l.O == nil {
		return 0, rd.errorf("event missing t/k/f/o")
	}
	if !rd.inChunk {
		return 0, rd.errorf("event before first chunk header")
	}
	k, known := kindOf[*l.K]
	if !known {
		return 0, rd.errorf("unknown kind %q", *l.K)
	}
	if *l.T < 0 {
		return 0, rd.errorf("negative timestamp %d", *l.T)
	}
	if *l.T < rd.lastT {
		return 0, rd.errorf("timestamp %d before %d — not monotone", *l.T, rd.lastT)
	}
	rd.lastT = *l.T
	if kinds[k].msg {
		if l.M == nil || l.U == nil || l.B == nil {
			return 0, rd.errorf("%s event missing m/u/b", *l.K)
		}
		if *l.U < 0 || *l.B < 0 {
			return 0, rd.errorf("negative units/bytes")
		}
	}
	if err := rd.provenance(l, k); err != nil {
		return 0, rd.errorf("%w", err)
	}
	switch k {
	case kind(sim.TraceFaultLoss):
		rd.loss[lossKey(*l.F, *l.O, *l.M)]++
	case kind(sim.TraceDropFault):
		key := lossKey(*l.F, *l.O, *l.M)
		if rd.loss[key] == 0 {
			return 0, rd.errorf("drop-fault %d→%d %q without a matching fault-loss decision", *l.F, *l.O, *l.M)
		}
		rd.loss[key]--
	}
	rd.sum.Events++
	rd.counts[k]++
	return k, nil
}

// provenance checks one event's schema-v2 fields, or their absence in a
// v1 chunk: spans dense from 1, every parent an earlier span of the
// chunk, and the depth by the kind's rule.
func (rd *reader) provenance(l *line, k kind) error {
	if !rd.prov {
		if l.C != nil || l.P != nil || l.D != nil || l.OH != nil || l.NH != nil {
			return fmt.Errorf("provenance fields in a v1 chunk")
		}
		return nil
	}
	if l.C == nil || l.D == nil {
		return fmt.Errorf("%s event in a v2 chunk missing c/d", *l.K)
	}
	if want := int64(len(rd.depths)) + 1; *l.C != want {
		return fmt.Errorf("span %d, want %d (spans are dense from 1)", *l.C, want)
	}
	d := *l.D
	if d < 0 {
		return fmt.Errorf("negative depth %d", d)
	}
	pd := int64(0) // the parent's depth; 0 without a parent
	if l.P != nil {
		if *l.P < 1 || *l.P >= *l.C {
			return fmt.Errorf("parent span %d does not precede span %d", *l.P, *l.C)
		}
		pd = rd.depths[*l.P-1]
	}
	name := kinds[k].name
	switch kinds[k].rule {
	case root:
		if d != 0 {
			return fmt.Errorf("root %s event with depth %d, want 0", name, d)
		}
	case hop:
		if d != pd+1 {
			return fmt.Errorf("%s depth %d, want %d (parent depth + 1)", name, d, pd+1)
		}
	case carried:
		if l.P == nil {
			return fmt.Errorf("%s event without a parent send span", name)
		}
		if d != pd {
			return fmt.Errorf("%s depth %d, want parent's %d", name, d, pd)
		}
	case caused:
		if d != pd {
			return fmt.Errorf("%s depth %d, want cause's %d", name, d, pd)
		}
	case dropped:
		if d != pd && d != pd+1 {
			return fmt.Errorf("%s depth %d, want %d or %d", name, d, pd, pd+1)
		}
	}
	if l.OH != nil != (l.NH != nil) {
		return fmt.Errorf("oh/nh must appear together")
	}
	if l.OH != nil {
		if k != kind(sim.TraceRouteChange) {
			return fmt.Errorf("oh/nh on a %s event (route only)", name)
		}
		if *l.OH < 0 || *l.NH < 0 {
			return fmt.Errorf("negative next hop")
		}
	}
	rd.depths = append(rd.depths, d)
	return nil
}

// Validate checks a JSONL trace against the schema in the package
// comment: every line parses, chunk headers carry chunk/label/seed with
// sequential chunk ids, events carry t/k/f/o (plus m/u/b for message
// kinds) with a known kind and nonnegative, per-chunk monotone
// nondecreasing timestamps, and no event precedes the first chunk
// header. Every drop-fault consumes an earlier fault-loss decision of
// its chunk; leftover decisions are legal and tallied in
// Summary.UnconsumedLossDecisions. Chunks declaring schema v2 have their
// provenance checked too (spans, parents and depth rules); v1 chunks
// must not carry provenance fields. It returns a summary of the valid
// trace or an error naming the offending line.
func Validate(r io.Reader) (Summary, error) {
	rd := newReader(r)
	for {
		if _, _, err := rd.next(); err == io.EOF {
			return rd.sum, nil
		} else if err != nil {
			return rd.sum, err
		}
	}
}

// lossKey identifies a fault-loss decision for pairing with its drop.
func lossKey(f, o int64, m string) string {
	return strconv.FormatInt(f, 10) + "|" + strconv.FormatInt(o, 10) + "|" + m
}
