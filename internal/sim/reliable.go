// Reliable transport: a protocol-agnostic adapter that gives any
// Protocol the session-level (TCP-like) delivery guarantees the paper's
// DistComm platform provides natively — and which the three routing
// protocols here assume. Under an injected-fault workload (message
// loss, duplication, reordering jitter; see Injector and
// internal/faults) the raw links stop being reliable, so the adapter
// restores exactly-once, in-order delivery per neighbor session with
// per-neighbor sequence numbers, cumulative acks, retransmission with
// exponential backoff, and duplicate suppression.
//
// Layering: Reliable wraps a Builder. Each wrapped node intercepts its
// protocol's Env.Send (framing the payload in a DataFrame) and the
// incoming Handle (unframing, acking, deduplicating, reordering) while
// every other Env method passes through. A link-down event resets the
// session in both directions — the peers renumber from 1 on the next
// session — which also covers node crashes: CrashNode drops the node's
// links, and the restarted instance starts fresh sessions.
//
// The adapter deliberately does not implement Snapshotter: a session
// with outstanding frames has retransmission timers in flight, which a
// checkpoint could not capture. Experiment harnesses that wrap
// protocols in Reliable fall back to cold starts (and fault runs cannot
// be checkpointed at all — see ErrFaultsActive).
package sim

import (
	"math/bits"
	"time"

	"centaur/internal/routing"
)

// ReliableConfig tunes the reliable-transport adapter. Runs use the
// defaults (the zero value); the fields are hooks for the package's
// tests.
type ReliableConfig struct {
	// initRTO is the initial retransmission timeout; it doubles after
	// every retransmission of a frame. It should exceed one round trip
	// — with the default 0–5 ms link delays, the default of 25 ms is ≥ 2
	// RTTs plus ack processing. Default 25 ms.
	initRTO time.Duration
	// retryLimit caps retransmissions per frame; a frame still unacked
	// after that many resends is abandoned (counted in
	// Stats.TransportAbandoned). Default 16.
	retryLimit int
	// backoffCap caps the exponential backoff. Without a cap the
	// interval doubles every attempt, so a frame that survives a long
	// partition can sit out seconds-to-minutes of backoff after the link
	// returns — post-partition re-sync latency was unbounded. With the
	// cap, the worst-case gap between the partition healing and the next
	// retransmission is backoffCap. Default 1 s.
	backoffCap time.Duration
}

func (c ReliableConfig) rto() time.Duration {
	if c.initRTO > 0 {
		return c.initRTO
	}
	return 25 * time.Millisecond
}

func (c ReliableConfig) maxRetries() int {
	if c.retryLimit > 0 {
		return c.retryLimit
	}
	return 16
}

func (c ReliableConfig) maxRTO() time.Duration {
	if c.backoffCap > 0 {
		return c.backoffCap
	}
	return time.Second
}

// DataFrame is the adapter's sequenced envelope around one protocol
// message. Its accounting kind is the payload's for first
// transmissions — so per-kind message counts still attribute to the
// protocol under test — and "transport.rexmit" for retransmissions, so
// retransmission overhead is separable in every per-kind metric.
type DataFrame struct {
	Seq     uint64
	Payload Message
	Rexmit  bool
}

var _ Message = DataFrame{}
var _ ByteSizer = DataFrame{}

// Kind implements Message.
func (f DataFrame) Kind() string {
	if f.Rexmit {
		return "transport.rexmit"
	}
	return f.Payload.Kind()
}

// Units implements Message: the payload's update units.
func (f DataFrame) Units() int { return f.Payload.Units() }

// uvarintLen is the byte length of v's unsigned-varint encoding —
// duplicated from internal/wire because sim cannot import it (wire
// reaches sim transitively through pgraph's telemetry counters).
// TestTransportSizesMatchWire pins the two implementations together.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Wire kinds of the transport frames, mirroring internal/wire's
// KindTransportData and KindTransportAck (pinned by the same test).
const (
	wireKindTransportData = 4
	wireKindTransportAck  = 5
)

// WireBytes implements ByteSizer: the wire.TransportData framing (kind,
// sequence number, length-prefixed payload) around the payload's own
// encoding.
func (f DataFrame) WireBytes() int {
	pb := 0
	if bs, ok := f.Payload.(ByteSizer); ok {
		pb = bs.WireBytes()
	}
	return uvarintLen(wireKindTransportData) + uvarintLen(f.Seq) +
		uvarintLen(uint64(pb)) + pb
}

// Ack is the adapter's cumulative acknowledgement: every frame of the
// session with sequence number ≤ Seq arrived in order. It carries no
// update units — it is pure transport overhead, visible in per-kind
// metrics as "transport.ack".
type Ack struct {
	Seq uint64
}

var _ Message = Ack{}
var _ ByteSizer = Ack{}

// Kind implements Message.
func (Ack) Kind() string { return "transport.ack" }

// Units implements Message: acks carry no routing-update units.
func (Ack) Units() int { return 0 }

// WireBytes implements ByteSizer with the internal/wire encoding.
func (a Ack) WireBytes() int {
	return uvarintLen(wireKindTransportAck) + uvarintLen(a.Seq)
}

// transportNoter is how the adapter folds its accounting into the
// owning Network's Stats; the simulator's nodeEnv implements it. Envs
// that don't (tests driving a relNode directly) just skip the stats.
type transportNoter interface {
	noteRetransmit()
	noteDupSuppressed()
	noteAbandoned()
}

// Reliable wraps inner so each node's messages ride reliable per-
// neighbor sessions. Both endpoints of every link must be wrapped (the
// experiment harnesses wrap the whole Builder, so they are); an
// unwrapped peer would receive DataFrames it does not understand.
func Reliable(inner Builder, cfg ReliableConfig) Builder {
	return func(env Env) Protocol {
		n := &relNode{
			env:  env,
			cfg:  cfg,
			sess: NewPeerTable[relSession](env.Neighbors()),
		}
		n.noter, _ = BaseEnv(env).(transportNoter)
		n.renv = relEnv{Env: env, n: n}
		n.inner = inner(&n.renv)
		return n
	}
}

// relSession is the adapter's per-neighbor state, covering both
// directions. gen increments on every session reset (link down/up) so
// retransmission timers of a previous session cannot touch the new one.
type relSession struct {
	gen uint64
	// Sender side: lastSeq is the most recently assigned sequence
	// number. win[head:] is the send window: the payload of frame
	// firstSeq+i sits at win[head+i], up to lastSeq, and nil marks a
	// frame given up on. A frame below firstSeq was acked or given up on.
	lastSeq  uint64
	firstSeq uint64
	head     int
	win      []Message
	// Receiver side: nextExpected is the next in-order sequence number;
	// buffer holds out-of-order arrivals awaiting the gap fill (nil until
	// the first one).
	nextExpected uint64
	buffer       map[uint64]Message
}

// reset opens generation gen on s: both directions start over from
// sequence number 1, in the storage of the previous generation.
func (s *relSession) reset(gen uint64) {
	clear(s.win)
	clear(s.buffer)
	*s = relSession{gen: gen, firstSeq: 1, win: s.win[:0], nextExpected: 1, buffer: s.buffer}
}

// push assigns the next sequence number to payload and appends it to
// the send window. A full array whose acked prefix is at least half of
// it is compacted in place instead of grown, so each entry is moved at
// most once per entry acked before it.
func (s *relSession) push(payload Message) uint64 {
	s.lastSeq++
	if len(s.win) == cap(s.win) && s.head > 0 && 2*s.head >= len(s.win) {
		k := copy(s.win, s.win[s.head:])
		clear(s.win[k:])
		s.win = s.win[:k]
		s.head = 0
	}
	s.win = append(s.win, payload)
	return s.lastSeq
}

// pending returns the payload of frame seq while it awaits its ack, and
// nil once it was acked or given up on.
func (s *relSession) pending(seq uint64) Message {
	if seq < s.firstSeq {
		return nil
	}
	return s.win[s.head+int(seq-s.firstSeq)]
}

// ack clears every frame up to and including seq from the window, in
// time proportional to the frames it clears.
func (s *relSession) ack(seq uint64) {
	if seq < s.firstSeq {
		return
	}
	k := len(s.win) - s.head
	if d := seq - s.firstSeq + 1; d < uint64(k) {
		k = int(d)
	}
	clear(s.win[s.head : s.head+k])
	s.head += k
	s.firstSeq += uint64(k)
	s.trim()
}

// abandon gives up on frame seq, which must be pending.
func (s *relSession) abandon(seq uint64) {
	s.win[s.head+int(seq-s.firstSeq)] = nil
	s.trim()
}

// trim moves the window's start past frames given up on, and rewinds
// the storage when nothing is left awaiting an ack.
func (s *relSession) trim() {
	for s.head < len(s.win) && s.win[s.head] == nil {
		s.head++
		s.firstSeq++
	}
	if s.head == len(s.win) {
		s.win = s.win[:0]
		s.head = 0
	}
}

// relNode is the adapter around one protocol instance.
type relNode struct {
	inner Protocol
	env   Env
	renv  relEnv
	cfg   ReliableConfig
	sess  PeerTable[relSession]
	noter transportNoter
}

var _ Protocol = (*relNode)(nil)

// relEnv is the protocol's view of the world: identical to the real Env
// except that Send frames the message into the node's session.
type relEnv struct {
	Env
	n *relNode
}

func (e *relEnv) Send(to routing.NodeID, msg Message) { e.n.sendData(to, msg) }

// UnwrapEnv implements EnvUnwrapper.
func (e *relEnv) UnwrapEnv() Env { return e.Env }

// Inner returns the wrapped protocol instance, so tests and invariant
// checkers can reach the protocol's RIB accessors through the adapter.
func (n *relNode) Inner() Protocol { return n.inner }

func (n *relNode) session(peer routing.NodeID) *relSession {
	s := n.sess.Get(peer)
	if s == nil {
		s = &relSession{}
		s.reset(0)
		n.sess.Set(peer, s)
	}
	return s
}

// resetSession discards all transport state toward peer and opens the
// next session generation. Pending retransmission timers check the
// generation and die silently.
func (n *relNode) resetSession(peer routing.NodeID) {
	if s := n.sess.Get(peer); s != nil {
		s.reset(s.gen + 1)
	}
}

func (n *relNode) sendData(to routing.NodeID, msg Message) {
	s := n.session(to)
	seq := s.push(msg)
	n.env.Send(to, DataFrame{Seq: seq, Payload: msg})
	n.armRetransmit(to, s.gen, seq, n.cfg.rto(), 1)
}

// armRetransmit schedules the attempt-th retransmission of frame seq on
// the session generation gen after delay d. The timer no-ops if the
// session was reset or the frame was acked meanwhile; otherwise it
// resends (even onto a down link — the send is then counted
// undeliverable, exactly what a real timer-driven sender does) and
// re-arms with the delay doubled, capped at maxRTO().
func (n *relNode) armRetransmit(to routing.NodeID, gen, seq uint64, d time.Duration, attempt int) {
	n.env.After(d, func() {
		s := n.sess.Get(to)
		if s == nil || s.gen != gen {
			return
		}
		payload := s.pending(seq)
		if payload == nil {
			return
		}
		if attempt > n.cfg.maxRetries() {
			s.abandon(seq)
			if n.noter != nil {
				n.noter.noteAbandoned()
			}
			return
		}
		if n.noter != nil {
			n.noter.noteRetransmit()
		}
		n.env.Send(to, DataFrame{Seq: seq, Payload: payload, Rexmit: true})
		next := 2 * d
		if max := n.cfg.maxRTO(); next > max {
			next = max
		}
		n.armRetransmit(to, gen, seq, next, attempt+1)
	})
}

// recvData acks, deduplicates, and releases in-order payloads to the
// wrapped protocol. The next expected frame with nothing buffered — the
// common case — goes straight to the protocol; the buffer sees only
// frames that arrive out of order or twice.
func (n *relNode) recvData(from routing.NodeID, f DataFrame) {
	s := n.session(from)
	if f.Seq == s.nextExpected && len(s.buffer) == 0 {
		s.nextExpected++
		n.inner.Handle(from, f.Payload)
	} else if _, buffered := s.buffer[f.Seq]; f.Seq < s.nextExpected || buffered {
		if n.noter != nil {
			n.noter.noteDupSuppressed()
		}
	} else {
		if s.buffer == nil {
			s.buffer = make(map[uint64]Message)
		}
		s.buffer[f.Seq] = f.Payload
		for {
			payload, ok := s.buffer[s.nextExpected]
			if !ok {
				break
			}
			delete(s.buffer, s.nextExpected)
			s.nextExpected++
			n.inner.Handle(from, payload)
		}
	}
	// Ack after draining (and even for duplicates — the original ack may
	// have been lost). Cumulative, so any later ack supersedes lost ones.
	n.env.Send(from, Ack{Seq: s.nextExpected - 1})
}

// Start implements Protocol.
func (n *relNode) Start(env Env) {
	n.env = env
	n.renv.Env = env
	n.inner.Start(&n.renv)
}

// Handle implements Protocol: transport frames are consumed here; the
// protocol sees only its own messages, in order, exactly once.
func (n *relNode) Handle(from routing.NodeID, msg Message) {
	switch m := msg.(type) {
	case DataFrame:
		n.recvData(from, m)
	case Ack:
		if s := n.sess.Get(from); s != nil {
			s.ack(m.Seq)
		}
	default:
		// Unframed message — peer not wrapped. Pass through.
		n.inner.Handle(from, msg)
	}
}

// LinkDown implements Protocol: the session dies with the link.
func (n *relNode) LinkDown(peer routing.NodeID) {
	n.resetSession(peer)
	n.inner.LinkDown(peer)
}

// LinkUp implements Protocol: open a fresh session (idempotent with the
// LinkDown reset; also covers a restarted peer whose numbering restarts
// from 1).
func (n *relNode) LinkUp(peer routing.NodeID) {
	n.resetSession(peer)
	n.inner.LinkUp(peer)
}
