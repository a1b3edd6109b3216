// The trace writer: one buffered chunk per simulation, concatenated in
// creation order.

package trace

import (
	"io"
	"strconv"
	"sync"

	"centaur/internal/sim"
)

// Collector accumulates the ordered chunk list of one trace. Create
// chunks with Chunk in the deterministic order jobs are constructed;
// each chunk may then be written to concurrently with the others (but a
// single chunk has one writer: the job's goroutine). A nil collector
// hands out nil chunks, whose Observe is a no-op.
type Collector struct {
	mu     sync.Mutex
	prov   bool
	chunks []*Chunk
}

// NewCollector returns an empty collector emitting schema v1.
func NewCollector() *Collector { return &Collector{} }

// NewCollectorV2 returns an empty collector emitting schema v2
// (causal provenance): its chunks write the span fields the simulator
// assigns to every event, which v1 chunks omit.
func NewCollectorV2() *Collector { return &Collector{prov: true} }

// Chunk appends a new chunk labeled with the job's series name and seed
// and returns it. The header line is emitted immediately. Returns nil on
// a nil collector.
func (tc *Collector) Chunk(label string, seed int64) *Chunk {
	if tc == nil {
		return nil
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c := &Chunk{prov: tc.prov}
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
func (tc *Collector) WriteTo(w io.Writer) (int64, error) {
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
func (tc *Collector) Bytes() []byte {
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

// Chunk is one simulation's event stream. Observe is a
// sim.Network subscriber; it must be called from a single goroutine
// (the simulator is single-threaded, so subscribing it with
// sim.Network.Observe satisfies this). A nil chunk no-ops.
type Chunk struct {
	prov bool
	buf  []byte
}

// Observe appends one simulator event as a JSONL line, a note under
// its own name. The end of an instant (sim.TraceInstant) is not a trace
// line and is skipped.
func (c *Chunk) Observe(ev sim.TraceEvent) {
	if c == nil || ev.Kind == sim.TraceInstant {
		return
	}
	b := c.buf
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	b = append(b, `,"k":`...)
	if ev.Kind == sim.TraceNote {
		b = strconv.AppendQuote(b, ev.Note)
	} else {
		b = append(b, '"')
		b = append(b, kinds[ev.Kind].name...) // fixed strings, no escaping needed
		b = append(b, '"')
	}
	b = append(b, `,"f":`...)
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
