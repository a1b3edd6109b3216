package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
)

// fakeMsg is a sized message for trace round-trip tests.
type fakeMsg struct {
	kind  string
	units int
	bytes int
}

func (m fakeMsg) Kind() string   { return m.kind }
func (m fakeMsg) Units() int     { return m.units }
func (m fakeMsg) WireBytes() int { return m.bytes }

// bareMsg has no ByteSizer: wire bytes render as 0.
type bareMsg struct{}

func (bareMsg) Kind() string { return "bare" }
func (bareMsg) Units() int   { return 2 }

func TestTraceRoundTrip(t *testing.T) {
	tc := NewTraceCollector()
	c := tc.Chunk("fig6.centaur", 42)
	c.Observe(sim.TraceEvent{Kind: sim.TraceSend, At: 10 * time.Millisecond, From: 1, To: 2,
		Msg: fakeMsg{kind: "centaur.update", units: 3, bytes: 120}})
	c.Observe(sim.TraceEvent{Kind: sim.TraceLinkDown, At: 15 * time.Millisecond, From: 1, To: 2})
	c.Observe(sim.TraceEvent{Kind: sim.TraceDeliver, At: 20 * time.Millisecond, From: 1, To: 2,
		Msg: bareMsg{}})
	c2 := tc.Chunk("fig6.bgp", 43)
	c2.Observe(sim.TraceEvent{Kind: sim.TraceDrop, At: 5 * time.Millisecond, From: 3, To: 4,
		Msg: fakeMsg{kind: "bgp.update", units: 1, bytes: 34}})

	sum, err := ValidateTrace(bytes.NewReader(tc.Bytes()))
	if err != nil {
		t.Fatalf("trace does not validate: %v\n%s", err, tc.Bytes())
	}
	if sum.Chunks != 2 || sum.Events != 4 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.ByKind["send"] != 1 || sum.ByKind["deliver"] != 1 ||
		sum.ByKind["drop"] != 1 || sum.ByKind["link-down"] != 1 {
		t.Fatalf("by-kind = %v", sum.ByKind)
	}

	out := string(tc.Bytes())
	if !strings.Contains(out, `"m":"centaur.update","u":3,"b":120`) {
		t.Fatalf("sized message not rendered:\n%s", out)
	}
	if !strings.Contains(out, `"m":"bare","u":2,"b":0`) {
		t.Fatalf("unsized message must render b:0:\n%s", out)
	}

	// WriteTo emits the same bytes.
	var buf bytes.Buffer
	n, err := tc.WriteTo(&buf)
	if err != nil || n != int64(len(tc.Bytes())) || !bytes.Equal(buf.Bytes(), tc.Bytes()) {
		t.Fatalf("WriteTo mismatch: n=%d err=%v", n, err)
	}
}

func TestNilTraceCollector(t *testing.T) {
	var tc *TraceCollector
	c := tc.Chunk("x", 1)
	if c != nil {
		t.Fatal("nil collector must hand out nil chunks")
	}
	c.Observe(sim.TraceEvent{Kind: sim.TraceSend}) // must not panic
	if tc.Bytes() != nil {
		t.Fatal("nil collector bytes must be nil")
	}
	if n, err := tc.WriteTo(&bytes.Buffer{}); n != 0 || err != nil {
		t.Fatalf("nil WriteTo: n=%d err=%v", n, err)
	}
}

func TestValidateTraceRejects(t *testing.T) {
	header := `{"chunk":0,"label":"x","seed":1}` + "\n"
	cases := map[string]string{
		"bad json":             header + `{"t":1,"k":` + "\n",
		"event before header":  `{"t":1,"k":"send","f":0,"o":1,"m":"a","u":1,"b":1}` + "\n",
		"missing fields":       header + `{"t":1,"k":"send"}` + "\n",
		"unknown kind":         header + `{"t":1,"k":"warp","f":0,"o":1}` + "\n",
		"negative timestamp":   header + `{"t":-1,"k":"route","f":0,"o":1}` + "\n",
		"msg kind missing m":   header + `{"t":1,"k":"send","f":0,"o":1}` + "\n",
		"negative units":       header + `{"t":1,"k":"send","f":0,"o":1,"m":"a","u":-1,"b":1}` + "\n",
		"header missing label": `{"chunk":0,"seed":1}` + "\n",
		"chunk id gap":         header + `{"chunk":2,"label":"y","seed":1}` + "\n",
		"non-monotone t": header +
			`{"t":5,"k":"route","f":0,"o":1}` + "\n" +
			`{"t":4,"k":"route","f":0,"o":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated but should fail:\n%s", name, in)
		}
	}

	// Timestamps reset across chunk boundaries: a later chunk may start
	// earlier than the previous chunk ended.
	ok := header +
		`{"t":9,"k":"route","f":0,"o":1}` + "\n" +
		`{"chunk":1,"label":"y","seed":2}` + "\n" +
		`{"t":1,"k":"route","f":0,"o":1}` + "\n"
	if _, err := ValidateTrace(strings.NewReader(ok)); err != nil {
		t.Fatalf("cross-chunk timestamp reset rejected: %v", err)
	}
}

func TestValidateTraceFaultKindsAndPairing(t *testing.T) {
	header := `{"chunk":0,"label":"rel.bgp","seed":7}` + "\n"
	loss := `{"t":1,"k":"fault-loss","f":3,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n"
	drop := `{"t":2,"k":"drop-fault","f":3,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n"

	// A decision followed by its delivery-time drop validates, and the
	// fault kinds show up in the summary.
	ok := header + loss +
		`{"t":1,"k":"fault-dup","f":3,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n" +
		`{"t":1,"k":"fault-jitter","f":4,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n" +
		drop +
		`{"t":3,"k":"crash","f":5,"o":5}` + "\n" +
		`{"t":4,"k":"restart","f":5,"o":5}` + "\n"
	sum, err := ValidateTrace(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("fault trace rejected: %v", err)
	}
	for _, k := range []string{"fault-loss", "fault-dup", "fault-jitter", "drop-fault", "crash", "restart"} {
		if sum.ByKind[k] != 1 {
			t.Fatalf("ByKind[%s] = %d, want 1 (%v)", k, sum.ByKind[k], sum.ByKind)
		}
	}

	// A leftover decision (no drop) is legal: a link flap can drop the
	// message first, tracing as plain "drop".
	if _, err := ValidateTrace(strings.NewReader(header + loss)); err != nil {
		t.Fatalf("leftover fault-loss decision rejected: %v", err)
	}

	// A drop-fault with no matching decision is a corrupt trace.
	if _, err := ValidateTrace(strings.NewReader(header + drop)); err == nil {
		t.Fatal("unmatched drop-fault must be rejected")
	}
	// A decision for a different (from, to, kind) does not match.
	other := `{"t":1,"k":"fault-loss","f":8,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n"
	if _, err := ValidateTrace(strings.NewReader(header + other + drop)); err == nil {
		t.Fatal("drop-fault must match on (from, to, message kind)")
	}
	// Decisions do not carry across chunk boundaries.
	cross := header + loss + `{"chunk":1,"label":"y","seed":8}` + "\n" + drop
	if _, err := ValidateTrace(strings.NewReader(cross)); err == nil {
		t.Fatal("decision must not pair across chunks")
	}
}

func TestUnconsumedLossDecisions(t *testing.T) {
	header := `{"chunk":0,"label":"rel.bgp","seed":7}` + "\n"
	loss := `{"t":1,"k":"fault-loss","f":3,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n"
	drop := `{"t":2,"k":"drop-fault","f":3,"o":9,"m":"bgp.update","u":1,"b":34}` + "\n"

	sum, err := ValidateTrace(strings.NewReader(header + loss + drop))
	if err != nil || sum.UnconsumedLossDecisions != 0 {
		t.Fatalf("paired decision: unconsumed=%d err=%v", sum.UnconsumedLossDecisions, err)
	}
	// A leftover at end of trace and one at a chunk boundary both count.
	in := header + loss + `{"chunk":1,"label":"y","seed":8}` + "\n" + loss
	sum, err = ValidateTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if sum.UnconsumedLossDecisions != 2 {
		t.Fatalf("unconsumed = %d, want 2", sum.UnconsumedLossDecisions)
	}
}

func TestTraceV2RoundTrip(t *testing.T) {
	tc := NewTraceCollectorV2()
	c := tc.Chunk("fig6.centaur", 42)
	header := len(tc.Bytes())
	c.Observe(sim.TraceEvent{Kind: sim.TraceInstant, At: 5})
	if len(tc.Bytes()) != header {
		t.Fatal("the end of an instant must not be written")
	}
	msg := fakeMsg{kind: "centaur.update", units: 1, bytes: 40}
	c.Observe(sim.TraceEvent{Kind: sim.TraceLinkDown, At: 10, From: 1, To: 2, Span: 1, Depth: 0})
	c.Observe(sim.TraceEvent{Kind: sim.TraceSend, At: 10, From: 1, To: 3, Msg: msg, Span: 2, Parent: 1, Depth: 1})
	c.Observe(sim.TraceEvent{Kind: sim.TraceFaultLoss, At: 10, From: 1, To: 3, Msg: msg, Span: 3, Parent: 2, Depth: 1})
	c.Observe(sim.TraceEvent{Kind: sim.TraceDropFault, At: 12, From: 1, To: 3, Msg: msg, Span: 4, Parent: 2, Depth: 1})
	c.Observe(sim.TraceEvent{Kind: sim.TraceSend, At: 13, From: 1, To: 3, Msg: msg, Span: 5, Parent: 1, Depth: 1})
	c.Observe(sim.TraceEvent{Kind: sim.TraceDeliver, At: 15, From: 1, To: 3, Msg: msg, Span: 6, Parent: 5, Depth: 1})
	c.Observe(sim.TraceEvent{Kind: sim.TraceRouteChange, At: 15, From: 3, To: 2, Span: 7, Parent: 6, Depth: 1,
		OldNext: 2, NewNext: routing.None, HasVia: true})

	out := string(tc.Bytes())
	if !strings.Contains(out, `{"chunk":0,"v":2,"label":"fig6.centaur","seed":42}`) {
		t.Fatalf("v2 header not rendered:\n%s", out)
	}
	if !strings.Contains(out, `"c":2,"p":1,"d":1`) {
		t.Fatalf("span fields not rendered:\n%s", out)
	}
	if !strings.Contains(out, `"oh":2,"nh":0`) {
		t.Fatalf("next-hop fields not rendered:\n%s", out)
	}
	if strings.Contains(out, `"p":0`) {
		t.Fatalf("zero parent must be omitted:\n%s", out)
	}

	sum, err := ValidateTrace(bytes.NewReader(tc.Bytes()))
	if err != nil {
		t.Fatalf("v2 trace does not validate: %v\n%s", err, out)
	}
	if sum.ProvenanceChunks != 1 || sum.Chunks != 1 || sum.Events != 7 {
		t.Fatalf("summary = %+v", sum)
	}
}

func TestValidateTraceV2Rejects(t *testing.T) {
	h2 := `{"chunk":0,"v":2,"label":"x","seed":1}` + "\n"
	h1 := `{"chunk":0,"label":"x","seed":1}` + "\n"
	down := `{"t":1,"k":"link-down","f":1,"o":2,"c":1,"d":0}` + "\n"
	cases := map[string]string{
		"unknown version":        `{"chunk":0,"v":3,"label":"x","seed":1}` + "\n",
		"provenance in v1 chunk": h1 + down,
		"missing c/d in v2":      h2 + `{"t":1,"k":"link-down","f":1,"o":2}` + "\n",
		"span not increasing": h2 + down +
			`{"t":2,"k":"link-up","f":1,"o":2,"c":1,"d":0}` + "\n",
		"unknown parent": h2 + down +
			`{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":2,"p":9,"d":1}` + "\n",
		"root with nonzero depth": h2 + `{"t":1,"k":"link-down","f":1,"o":2,"c":1,"d":2}` + "\n",
		"send depth not parent+1": h2 + down +
			`{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":2,"p":1,"d":3}` + "\n",
		"orphan send depth not 1": h2 + `{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":1,"d":2}` + "\n",
		"deliver without parent":  h2 + `{"t":1,"k":"deliver","f":1,"o":3,"m":"a","u":1,"b":1,"c":1,"d":1}` + "\n",
		"deliver depth mismatch": h2 + down +
			`{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":2,"p":1,"d":1}` + "\n" +
			`{"t":2,"k":"deliver","f":1,"o":3,"m":"a","u":1,"b":1,"c":3,"p":2,"d":2}` + "\n",
		"route depth mismatch": h2 + down +
			`{"t":1,"k":"route","f":2,"o":5,"c":2,"p":1,"d":1}` + "\n",
		"oh without nh": h2 + down +
			`{"t":1,"k":"route","f":2,"o":5,"c":2,"p":1,"d":0,"oh":3}` + "\n",
		"oh on non-route": h2 + down +
			`{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":2,"p":1,"d":1,"oh":3,"nh":4}` + "\n",
		"negative next hop": h2 + down +
			`{"t":1,"k":"route","f":2,"o":5,"c":2,"p":1,"d":0,"oh":-1,"nh":4}` + "\n",
		"negative depth": h2 + `{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":1,"d":-1}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated but should fail:\n%s", name, in)
		}
	}

	// A well-formed v2 chunk may follow a v1 chunk; each declares its own
	// version and the provenance state resets per chunk.
	mixed := h1 + `{"t":1,"k":"route","f":0,"o":1}` + "\n" +
		`{"chunk":1,"v":2,"label":"y","seed":2}` + "\n" +
		`{"t":1,"k":"link-down","f":1,"o":2,"c":1,"d":0}` + "\n" +
		`{"t":1,"k":"send","f":1,"o":3,"m":"a","u":1,"b":1,"c":2,"p":1,"d":1}` + "\n" +
		`{"t":2,"k":"deliver","f":1,"o":3,"m":"a","u":1,"b":1,"c":3,"p":2,"d":1}` + "\n" +
		`{"t":2,"k":"route","f":3,"o":9,"c":4,"p":3,"d":1,"oh":0,"nh":1}` + "\n"
	sum, err := ValidateTrace(strings.NewReader(mixed))
	if err != nil {
		t.Fatalf("mixed v1/v2 trace rejected: %v", err)
	}
	if sum.Chunks != 2 || sum.ProvenanceChunks != 1 {
		t.Fatalf("summary = %+v", sum)
	}
	// A v1 explicit version marker is accepted.
	if _, err := ValidateTrace(strings.NewReader(`{"chunk":0,"v":1,"label":"x","seed":1}` + "\n")); err != nil {
		t.Fatalf("explicit v1 header rejected: %v", err)
	}
}
