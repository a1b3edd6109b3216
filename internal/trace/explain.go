// Causal analysis of schema-v2 traces. Explain reconstructs, per trace
// chunk, the causal tree hanging off every root event (a link or node
// transition, or an attack's attachment) and derives the observability
// artifacts the -explain CLI and the bench report publish:
//
//   - the convergence wavefront: how many route changes happened at
//     each causal depth (message hops from the root event);
//   - the critical path: the deepest send→deliver chain from the root
//     to a route change (ties broken toward the latest), rendered hop
//     by hop with per-hop latency;
//   - per-destination churn with repeated-state cycle detection (a
//     next hop revisited non-adjacently, the classic path-hunting
//     signature);
//   - a blame summary: the links contributing the most latency across
//     all critical paths of the chunk;
//   - per-series distributions of critical-path depth and latency,
//     feeding the provenance section of BENCH_report.json.
//
// The analysis streams: one chunk's span table is held at a time, and
// a span costs ~56 bytes, so even multi-million-event chunks fit
// comfortably.

package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"centaur/internal/metrics"
	"centaur/internal/sim"
)

// exSpan is one traced event in the per-chunk span table, indexed by
// span ID (spans are dense from 1 within a chunk).
type exSpan struct {
	t      int64
	parent int64
	root   int64 // span of the root event this descends from; 0 = startup
	from   int32
	to     int32
	depth  int32
	kind   kind
	msg    uint8 // interned message kind; 0 = none
}

// Hop is one send→deliver edge on a critical path.
type Hop struct {
	From, To  int64
	Msg       string
	SendAt    int64
	DeliverAt int64
}

// Latency is the hop's in-flight time.
func (h Hop) Latency() time.Duration { return time.Duration(h.DeliverAt - h.SendAt) }

// CriticalPath is the deepest causal chain from a root event to a
// route change (ties broken toward the latest route change).
type CriticalPath struct {
	Depth     int   // message hops from the root to the final route change
	LatencyNs int64 // root event time → final route change time
	Hops      []Hop
}

// RootTree summarizes the causal tree of one root event: a link or node
// transition, or an attack's attachment.
type RootTree struct {
	Kind     string
	From, To int64
	At       int64

	RouteChanges int
	// Wavefront[d] counts route changes at causal depth d.
	Wavefront []int
	// LastRouteAt is the time of the causally-last route change in this
	// tree (the convergence instant as provenance sees it); equal to At
	// when the tree produced no route changes.
	LastRouteAt int64
	Critical    CriticalPath
}

// ConvergenceNs is the root event → last route change latency.
func (r *RootTree) ConvergenceNs() int64 { return r.LastRouteAt - r.At }

// DestChurn reports route-table churn at one (node, destination) pair.
type DestChurn struct {
	Node, Dest int64
	Changes    int
	// Cycles counts next-hop values revisited non-adjacently (A→B→A),
	// the repeated-state signature of path hunting. Only counted for
	// protocols that report next hops.
	Cycles int
	// NextHops is the observed next-hop sequence, capped at
	// churnSeqCap values (0 = no route); empty when the protocol
	// doesn't report next hops.
	NextHops []int64
}

// LinkBlame attributes critical-path latency to one undirected link.
type LinkBlame struct {
	A, B      int64
	Hops      int
	LatencyNs int64
}

// ChunkExplain is the causal analysis of one trace chunk.
type ChunkExplain struct {
	Label string
	Seed  int64
	// Roots lists every root event's causal tree, in trace order.
	Roots []*RootTree
	// StartupRouteChanges counts route events with no root ancestor
	// (initial convergence), excluded from the trees.
	StartupRouteChanges int
	// Churn lists (node, destination) pairs by descending change count
	// (ties toward lower node then dest).
	Churn []DestChurn
	// Blame lists undirected links by descending critical-path latency
	// contribution.
	Blame []LinkBlame
}

// SeriesProvenance aggregates critical-path shape over every root
// event of one series label, for BENCH_report.json.
type SeriesProvenance struct {
	Roots                int     `json:"roots"`
	CriticalDepthP50     float64 `json:"critical_depth_p50"`
	CriticalDepthP90     float64 `json:"critical_depth_p90"`
	CriticalDepthMax     float64 `json:"critical_depth_max"`
	CriticalLatencyMsP50 float64 `json:"critical_latency_ms_p50"`
	CriticalLatencyMsP90 float64 `json:"critical_latency_ms_p90"`
	CriticalLatencyMsMax float64 `json:"critical_latency_ms_max"`
}

// seriesDists accumulates the raw distributions behind SeriesProvenance.
type seriesDists struct {
	roots   int
	depth   *metrics.Dist
	latency *metrics.Dist // milliseconds
}

// ExplainReport is the full causal analysis of a schema-v2 trace.
type ExplainReport struct {
	Chunks []*ChunkExplain
	series map[string]*seriesDists
}

// SeriesSummary returns per-series critical-path percentiles, keyed by
// chunk label; a series with no root event reports zeros.
func (r *ExplainReport) SeriesSummary() map[string]SeriesProvenance {
	out := make(map[string]SeriesProvenance, len(r.series))
	for label, sd := range r.series {
		if sd.roots == 0 {
			// Empty distributions answer NaN, which neither JSON nor a
			// reader of the -explain text can use: no root, no path.
			out[label] = SeriesProvenance{}
			continue
		}
		out[label] = SeriesProvenance{
			Roots:                sd.roots,
			CriticalDepthP50:     sd.depth.Percentile(50),
			CriticalDepthP90:     sd.depth.Percentile(90),
			CriticalDepthMax:     sd.depth.Max(),
			CriticalLatencyMsP50: sd.latency.Percentile(50),
			CriticalLatencyMsP90: sd.latency.Percentile(90),
			CriticalLatencyMsMax: sd.latency.Max(),
		}
	}
	return out
}

const (
	churnSeqCap  = 16 // next-hop values kept per (node, dest) for rendering
	churnListCap = 8  // churn entries reported per chunk
	blameListCap = 8  // blame entries reported per chunk
	renderChunks = 12 // chunks rendered in full by String
)

// Explain reads a JSONL trace and reconstructs its causal trees. It
// checks the trace as Validate does, with the same errors, and then
// needs every chunk to declare schema v2 (run the producer with
// provenance on).
func Explain(r io.Reader) (*ExplainReport, error) {
	rep := &ExplainReport{series: make(map[string]*seriesDists)}
	rd := newReader(r)
	var cur *chunkAnalysis
	var v1 error // the first v1 chunk; reported once the rest validates
	for {
		l, k, err := rd.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case v1 != nil:
		case l.Chunk == nil:
			cur.observe(l, k)
		case !rd.prov:
			v1 = rd.errorf("chunk %d is schema v1 — explain needs a provenance trace (re-run with -prov)", *l.Chunk)
		default:
			if cur != nil {
				rep.add(cur.finish())
			}
			cur = newChunkAnalysis(*l.Label, *l.Seed)
		}
	}
	if v1 != nil {
		return nil, v1
	}
	if cur != nil {
		rep.add(cur.finish())
	}
	return rep, nil
}

func (r *ExplainReport) add(c *ChunkExplain) {
	r.Chunks = append(r.Chunks, c)
	sd := r.series[c.Label]
	if sd == nil {
		sd = &seriesDists{depth: metrics.NewDist(64), latency: metrics.NewDist(64)}
		r.series[c.Label] = sd
	}
	for _, rt := range c.Roots {
		sd.roots++
		sd.depth.Add(float64(rt.Critical.Depth))
		sd.latency.Add(float64(rt.Critical.LatencyNs) / 1e6)
	}
}

// churnState tracks one (node, dest) pair while a chunk streams.
type churnState struct {
	changes int
	cycles  int
	hasVia  bool
	seq     []int64       // capped at churnSeqCap
	lastIdx map[int64]int // next hop → last position in the full sequence
	n       int           // full sequence length (beyond the cap)
}

// rootAgg accumulates one root event's tree while a chunk streams.
type rootAgg struct {
	span      int64
	kind      kind
	from, to  int64
	at        int64
	changes   int
	wavefront []int
	lastAt    int64
	critSpan  int64
	critDepth int32
	critAt    int64
}

type chunkAnalysis struct {
	label     string
	seed      int64
	spans     []exSpan // index = span ID; [0] unused
	roots     []*rootAgg
	rootIdx   map[int64]*rootAgg
	churn     map[uint64]*churnState
	msgKinds  []string
	msgIdx    map[string]uint8
	startupRC int
}

func newChunkAnalysis(label string, seed int64) *chunkAnalysis {
	return &chunkAnalysis{
		label:    label,
		seed:     seed,
		spans:    make([]exSpan, 1, 1024),
		rootIdx:  make(map[int64]*rootAgg),
		churn:    make(map[uint64]*churnState),
		msgKinds: []string{""},
		msgIdx:   map[string]uint8{"": 0},
	}
}

func (c *chunkAnalysis) intern(m *string) uint8 {
	if m == nil {
		return 0
	}
	if i, ok := c.msgIdx[*m]; ok {
		return i
	}
	if len(c.msgKinds) == 256 {
		return 0 // cap the table; unknown renders as ""
	}
	i := uint8(len(c.msgKinds))
	c.msgKinds = append(c.msgKinds, *m)
	c.msgIdx[*m] = i
	return i
}

// observe adds one validated v2 event to the chunk's span table and,
// for a root or a route change, to its tree.
func (c *chunkAnalysis) observe(l *line, k kind) {
	id := *l.C
	s := exSpan{
		t:     *l.T,
		from:  int32(*l.F),
		to:    int32(*l.O),
		depth: int32(*l.D),
		kind:  k,
		msg:   c.intern(l.M),
	}
	if l.P != nil {
		s.parent = *l.P
	}
	isRoot := kinds[k].rule == root
	switch {
	case isRoot:
		s.root = id
	case s.parent != 0:
		s.root = c.spans[s.parent].root
	}
	c.spans = append(c.spans, s)

	if isRoot {
		ra := &rootAgg{span: id, kind: s.kind, from: int64(s.from), to: int64(s.to), at: s.t, lastAt: s.t, critAt: s.t}
		c.roots = append(c.roots, ra)
		c.rootIdx[id] = ra
		return
	}
	if k != kind(sim.TraceRouteChange) {
		return
	}
	// A route change: attribute it to its root's tree and to its
	// (node, dest) churn record.
	if s.root == 0 {
		c.startupRC++
	} else if ra := c.rootIdx[s.root]; ra != nil {
		ra.changes++
		for int(s.depth) >= len(ra.wavefront) {
			ra.wavefront = append(ra.wavefront, 0)
		}
		ra.wavefront[s.depth]++
		if s.t > ra.lastAt {
			ra.lastAt = s.t
		}
		if ra.critSpan == 0 || s.depth > ra.critDepth || (s.depth == ra.critDepth && s.t >= ra.critAt) {
			ra.critSpan, ra.critDepth, ra.critAt = id, s.depth, s.t
		}
	}
	key := uint64(uint32(s.from))<<32 | uint64(uint32(s.to))
	cs := c.churn[key]
	if cs == nil {
		cs = &churnState{lastIdx: make(map[int64]int)}
		c.churn[key] = cs
	}
	cs.changes++
	if l.NH != nil {
		cs.hasVia = true
		nh := *l.NH
		if last, seen := cs.lastIdx[nh]; seen && last < cs.n-1 {
			cs.cycles++
		}
		cs.lastIdx[nh] = cs.n
		cs.n++
		if len(cs.seq) < churnSeqCap {
			cs.seq = append(cs.seq, nh)
		}
	}
}

// criticalPath walks the parent chain from the critical route change
// back to the root, collecting the send→deliver hops in causal order.
func (c *chunkAnalysis) criticalPath(ra *rootAgg) CriticalPath {
	cp := CriticalPath{Depth: int(ra.critDepth), LatencyNs: ra.critAt - ra.at}
	if ra.critSpan == 0 {
		cp.LatencyNs = 0
		return cp
	}
	for id := ra.critSpan; id != 0 && id != ra.span; {
		s := &c.spans[id]
		if s.kind == kind(sim.TraceDeliver) && s.parent != 0 {
			snd := &c.spans[s.parent]
			if snd.kind == kind(sim.TraceSend) {
				cp.Hops = append(cp.Hops, Hop{
					From: int64(snd.from), To: int64(snd.to),
					Msg: c.msgKinds[snd.msg], SendAt: snd.t, DeliverAt: s.t,
				})
			}
		}
		id = s.parent
	}
	// Walked leaf → root; present root → leaf.
	for i, j := 0, len(cp.Hops)-1; i < j; i, j = i+1, j-1 {
		cp.Hops[i], cp.Hops[j] = cp.Hops[j], cp.Hops[i]
	}
	return cp
}

func (c *chunkAnalysis) finish() *ChunkExplain {
	out := &ChunkExplain{Label: c.label, Seed: c.seed, StartupRouteChanges: c.startupRC}
	blame := make(map[uint64]*LinkBlame)
	for _, ra := range c.roots {
		rt := &RootTree{
			Kind: kinds[ra.kind].name, From: ra.from, To: ra.to, At: ra.at,
			RouteChanges: ra.changes, Wavefront: ra.wavefront, LastRouteAt: ra.lastAt,
			Critical: c.criticalPath(ra),
		}
		out.Roots = append(out.Roots, rt)
		for _, h := range rt.Critical.Hops {
			a, b := h.From, h.To
			if a > b {
				a, b = b, a
			}
			key := uint64(uint32(a))<<32 | uint64(uint32(b))
			lb := blame[key]
			if lb == nil {
				lb = &LinkBlame{A: a, B: b}
				blame[key] = lb
			}
			lb.Hops++
			lb.LatencyNs += int64(h.Latency())
		}
	}
	for key, cs := range c.churn {
		out.Churn = append(out.Churn, DestChurn{
			Node: int64(key >> 32), Dest: int64(uint32(key)),
			Changes: cs.changes, Cycles: cs.cycles, NextHops: cs.seq,
		})
	}
	sort.Slice(out.Churn, func(i, j int) bool {
		a, b := out.Churn[i], out.Churn[j]
		if a.Changes != b.Changes {
			return a.Changes > b.Changes
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Dest < b.Dest
	})
	if len(out.Churn) > churnListCap {
		out.Churn = out.Churn[:churnListCap]
	}
	for _, lb := range blame {
		out.Blame = append(out.Blame, *lb)
	}
	sort.Slice(out.Blame, func(i, j int) bool {
		a, b := out.Blame[i], out.Blame[j]
		if a.LatencyNs != b.LatencyNs {
			return a.LatencyNs > b.LatencyNs
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	if len(out.Blame) > blameListCap {
		out.Blame = out.Blame[:blameListCap]
	}
	return out
}

// String renders the report for the -explain CLI: the first
// renderChunks chunks in full (root trees, wavefronts, critical paths,
// churn, blame), a count of elided chunks, and the per-series
// critical-path summary.
func (r *ExplainReport) String() string {
	var b strings.Builder
	for i, c := range r.Chunks {
		if i == renderChunks {
			fmt.Fprintf(&b, "... %d more chunks (per-series summary below covers all)\n\n", len(r.Chunks)-renderChunks)
			break
		}
		c.render(&b)
	}
	labels := make([]string, 0, len(r.series))
	for l := range r.series {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	b.WriteString("per-series critical paths (all chunks):\n")
	sum := r.SeriesSummary()
	for _, l := range labels {
		s := sum[l]
		fmt.Fprintf(&b, "  %-18s roots=%-4d depth p50=%.0f p90=%.0f max=%.0f  latency-ms p50=%.2f p90=%.2f max=%.2f\n",
			l, s.Roots, s.CriticalDepthP50, s.CriticalDepthP90, s.CriticalDepthMax,
			s.CriticalLatencyMsP50, s.CriticalLatencyMsP90, s.CriticalLatencyMsMax)
	}
	return b.String()
}

func (c *ChunkExplain) render(b *strings.Builder) {
	fmt.Fprintf(b, "chunk %q seed=%d: %d root event(s), %d startup route change(s)\n",
		c.Label, c.Seed, len(c.Roots), c.StartupRouteChanges)
	for _, rt := range c.Roots {
		fmt.Fprintf(b, "  %s %d-%d at %v: %d route change(s)",
			rt.Kind, rt.From, rt.To, time.Duration(rt.At), rt.RouteChanges)
		if rt.RouteChanges == 0 {
			b.WriteString(" — no routing impact\n")
			continue
		}
		fmt.Fprintf(b, ", converged +%v\n", time.Duration(rt.ConvergenceNs()))
		b.WriteString("    wavefront:")
		for d, n := range rt.Wavefront {
			if n != 0 {
				fmt.Fprintf(b, " d%d:%d", d, n)
			}
		}
		b.WriteByte('\n')
		fmt.Fprintf(b, "    critical path: depth %d, +%v", rt.Critical.Depth, time.Duration(rt.Critical.LatencyNs))
		for _, h := range rt.Critical.Hops {
			fmt.Fprintf(b, "\n      %d→%d %s +%v", h.From, h.To, h.Msg, h.Latency())
		}
		b.WriteByte('\n')
	}
	if len(c.Churn) > 0 {
		b.WriteString("  churn (top):\n")
		for _, ch := range c.Churn {
			fmt.Fprintf(b, "    node %d dest %d: %d change(s)", ch.Node, ch.Dest, ch.Changes)
			if ch.Cycles > 0 {
				fmt.Fprintf(b, ", %d cycle(s)", ch.Cycles)
			}
			if len(ch.NextHops) > 0 {
				b.WriteString(", nh ")
				for i, nh := range ch.NextHops {
					if i > 0 {
						b.WriteByte('>')
					}
					if nh == 0 {
						b.WriteByte('-')
					} else {
						fmt.Fprintf(b, "%d", nh)
					}
				}
			}
			b.WriteByte('\n')
		}
	}
	if len(c.Blame) > 0 {
		b.WriteString("  blame (critical-path latency by link):\n")
		for _, lb := range c.Blame {
			fmt.Fprintf(b, "    link %d-%d: %d hop(s), %v\n", lb.A, lb.B, lb.Hops, time.Duration(lb.LatencyNs))
		}
	}
	b.WriteByte('\n')
}
