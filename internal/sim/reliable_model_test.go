package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topology"
)

// mapReliable is the reference model of the reliable transport's
// bookkeeping: the adapter as it was before the send window, with
// sessions, outstanding frames and the reorder buffer in maps, and a
// scan of every outstanding frame per ack. FuzzReliableWindow drives it
// and Reliable in lockstep.
func mapReliable(inner Builder, cfg ReliableConfig) Builder {
	return func(env Env) Protocol {
		n := &mapRelNode{env: env, cfg: cfg, sess: make(map[routing.NodeID]*mapRelSession)}
		n.noter, _ = BaseEnv(env).(transportNoter)
		n.renv = mapRelEnv{Env: env, n: n}
		n.inner = inner(&n.renv)
		return n
	}
}

type mapRelSession struct {
	gen          uint64
	lastSeq      uint64
	outstanding  map[uint64]*DataFrame
	nextExpected uint64
	buffer       map[uint64]Message
}

func newMapRelSession(gen uint64) *mapRelSession {
	return &mapRelSession{
		gen:          gen,
		outstanding:  make(map[uint64]*DataFrame),
		nextExpected: 1,
		buffer:       make(map[uint64]Message),
	}
}

type mapRelNode struct {
	inner Protocol
	env   Env
	renv  mapRelEnv
	cfg   ReliableConfig
	sess  map[routing.NodeID]*mapRelSession
	noter transportNoter
}

type mapRelEnv struct {
	Env
	n *mapRelNode
}

func (e *mapRelEnv) Send(to routing.NodeID, msg Message) { e.n.sendData(to, msg) }

func (n *mapRelNode) session(peer routing.NodeID) *mapRelSession {
	s := n.sess[peer]
	if s == nil {
		s = newMapRelSession(0)
		n.sess[peer] = s
	}
	return s
}

func (n *mapRelNode) resetSession(peer routing.NodeID) {
	if s := n.sess[peer]; s != nil {
		n.sess[peer] = newMapRelSession(s.gen + 1)
	}
}

func (n *mapRelNode) sendData(to routing.NodeID, msg Message) {
	s := n.session(to)
	s.lastSeq++
	f := DataFrame{Seq: s.lastSeq, Payload: msg}
	s.outstanding[f.Seq] = &f
	n.env.Send(to, f)
	n.armRetransmit(to, s.gen, f.Seq, n.cfg.rto(), 1)
}

func (n *mapRelNode) armRetransmit(to routing.NodeID, gen, seq uint64, d time.Duration, attempt int) {
	n.env.After(d, func() {
		s := n.sess[to]
		if s == nil || s.gen != gen {
			return
		}
		f, ok := s.outstanding[seq]
		if !ok {
			return
		}
		if attempt > n.cfg.maxRetries() {
			delete(s.outstanding, seq)
			if n.noter != nil {
				n.noter.noteAbandoned()
			}
			return
		}
		f.Rexmit = true
		if n.noter != nil {
			n.noter.noteRetransmit()
		}
		n.env.Send(to, *f)
		next := 2 * d
		if max := n.cfg.maxRTO(); next > max {
			next = max
		}
		n.armRetransmit(to, gen, seq, next, attempt+1)
	})
}

func (n *mapRelNode) recvData(from routing.NodeID, f DataFrame) {
	s := n.session(from)
	_, buffered := s.buffer[f.Seq]
	if f.Seq < s.nextExpected || buffered {
		if n.noter != nil {
			n.noter.noteDupSuppressed()
		}
	} else {
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
	n.env.Send(from, Ack{Seq: s.nextExpected - 1})
}

func (n *mapRelNode) Start(env Env) {
	n.env = env
	n.renv.Env = env
	n.inner.Start(&n.renv)
}

func (n *mapRelNode) Handle(from routing.NodeID, msg Message) {
	switch m := msg.(type) {
	case DataFrame:
		n.recvData(from, m)
	case Ack:
		if s := n.sess[from]; s != nil {
			for seq := range s.outstanding {
				if seq <= m.Seq {
					delete(s.outstanding, seq)
				}
			}
		}
	default:
		n.inner.Handle(from, msg)
	}
}

func (n *mapRelNode) LinkDown(peer routing.NodeID) {
	n.resetSession(peer)
	n.inner.LinkDown(peer)
}

func (n *mapRelNode) LinkUp(peer routing.NodeID) {
	n.resetSession(peer)
	n.inner.LinkUp(peer)
}

// stepEnv is an Env that records what a transport does instead of
// simulating it: every send, every timer with its delay (fired only
// when the schedule says so), and the transport's accounting.
type stepEnv struct {
	nbrs    []topology.Neighbor
	sends   []sentMsg
	timers  []stepTimer
	rexmits int
	dups    int
	aband   int
}

type sentMsg struct {
	to  routing.NodeID
	msg Message
}

type stepTimer struct {
	d  time.Duration
	fn func()
}

func (e *stepEnv) Self() routing.NodeID           { return 1 }
func (e *stepEnv) Now() time.Duration             { return 0 }
func (e *stepEnv) Neighbors() []topology.Neighbor { return e.nbrs }
func (e *stepEnv) LinkIsUp(routing.NodeID) bool   { return true }
func (e *stepEnv) RouteChanged(routing.NodeID)    {}
func (e *stepEnv) Index() *topology.Index         { return nil }
func (e *stepEnv) noteRetransmit()                { e.rexmits++ }
func (e *stepEnv) noteDupSuppressed()             { e.dups++ }
func (e *stepEnv) noteAbandoned()                 { e.aband++ }

func (e *stepEnv) RouteChangedVia(_, _, _ routing.NodeID) {}
func (e *stepEnv) Emit(string, routing.NodeID)            {}

func (e *stepEnv) Send(to routing.NodeID, msg Message) {
	e.sends = append(e.sends, sentMsg{to, msg})
}

func (e *stepEnv) After(d time.Duration, fn func()) {
	e.timers = append(e.timers, stepTimer{d, fn})
}

// fire runs and removes the i-th pending timer.
func (e *stepEnv) fire(i int) {
	fn := e.timers[i].fn
	e.timers = slices.Delete(e.timers, i, i+1)
	fn()
}

// relSide is one transport under test: its recording Env and the
// protocol it releases payloads to.
type relSide struct {
	env   *stepEnv
	proto Protocol
	inner *recNode
}

// Node 1's peers in the lockstep: two neighbors, and a peer outside
// the adjacency list.
var stepPeers = [...]routing.NodeID{2, 3, 9}

func newRelSide(build func(Builder, ReliableConfig) Builder, cfg ReliableConfig) *relSide {
	s := &relSide{env: &stepEnv{nbrs: []topology.Neighbor{{ID: 2}, {ID: 3}}}, inner: &recNode{}}
	s.proto = build(func(Env) Protocol { return s.inner }, cfg)(s.env)
	s.proto.Start(s.env)
	return s
}

// relStep is one operation of a lockstep schedule, decoded from three
// bytes: what to do, toward which peer, and a sequence number, payload
// or timer choice. 255 stands for the largest sequence number.
type relStep struct{ op, peer, arg byte }

func (st relStep) seq() uint64 {
	if st.arg == 255 {
		return math.MaxUint64
	}
	return uint64(st.arg)
}

func (st relStep) String() string {
	p := stepPeers[int(st.peer)%len(stepPeers)]
	switch st.op % 6 {
	case 0:
		return fmt.Sprintf("send %v payload %d", p, st.arg)
	case 1:
		return fmt.Sprintf("ack from %v seq %d", p, st.seq())
	case 2:
		return fmt.Sprintf("fire timer %d", st.arg)
	case 3:
		return fmt.Sprintf("data from %v seq %d", p, st.seq())
	case 4:
		return fmt.Sprintf("link down %v", p)
	default:
		return fmt.Sprintf("link up %v", p)
	}
}

// apply runs st on one side.
func (st relStep) apply(s *relSide) {
	p := stepPeers[int(st.peer)%len(stepPeers)]
	switch st.op % 6 {
	case 0:
		s.inner.env.Send(p, pingMsg{hops: int(st.arg)})
	case 1:
		s.proto.Handle(p, Ack{Seq: st.seq()})
	case 2:
		if len(s.env.timers) > 0 {
			s.env.fire(int(st.arg) % len(s.env.timers))
		}
	case 3:
		s.proto.Handle(p, DataFrame{Seq: st.seq(), Payload: pingMsg{hops: int(st.arg)}})
	case 4:
		s.proto.LinkDown(p)
	default:
		s.proto.LinkUp(p)
	}
}

// diff describes the first difference between the two sides, or "".
func (s *relSide) diff(m *relSide) string {
	switch {
	case !slices.Equal(s.env.sends, m.env.sends):
		return fmt.Sprintf("sends differ:\nwindow %v\nmodel  %v", s.env.sends, m.env.sends)
	case !slices.Equal(s.inner.got, m.inner.got):
		return fmt.Sprintf("deliveries differ:\nwindow %v\nmodel  %v", s.inner.got, m.inner.got)
	case s.env.rexmits != m.env.rexmits || s.env.dups != m.env.dups || s.env.aband != m.env.aband:
		return fmt.Sprintf("retransmits/dups/abandons: window %d/%d/%d, model %d/%d/%d",
			s.env.rexmits, s.env.dups, s.env.aband, m.env.rexmits, m.env.dups, m.env.aband)
	case len(s.env.timers) != len(m.env.timers):
		return fmt.Sprintf("pending timers: window %d, model %d", len(s.env.timers), len(m.env.timers))
	}
	for i := range s.env.timers {
		if s.env.timers[i].d != m.env.timers[i].d {
			return fmt.Sprintf("timer %d delay: window %v, model %v", i, s.env.timers[i].d, m.env.timers[i].d)
		}
	}
	return ""
}

// lockstepReliable runs the schedule encoded in data through Reliable
// and the map-based model and fails on the first step after which they
// differ. It returns the number of retransmissions, duplicate
// suppressions and abandons, to show what a schedule exercised.
func lockstepReliable(t *testing.T, data []byte) (rexmits, dups, abandons int) {
	// Two retries and a low backoff cap, so schedules reach abandons and
	// capped timers in a few steps.
	cfg := ReliableConfig{initRTO: time.Millisecond, retryLimit: 2, backoffCap: 3 * time.Millisecond}
	win, model := newRelSide(Reliable, cfg), newRelSide(mapReliable, cfg)
	var done []relStep
	for i := 0; i+3 <= len(data); i += 3 {
		st := relStep{data[i], data[i+1], data[i+2]}
		done = append(done, st)
		st.apply(win)
		st.apply(model)
		if d := win.diff(model); d != "" {
			t.Fatalf("after steps %v: %s", done, d)
		}
	}
	return win.env.rexmits, win.env.dups, win.env.aband
}

// Schedule builders for the seed corpus.
func sendTo(peer, payload byte) []byte { return []byte{0, peer, payload} }
func ackFrom(peer, seq byte) []byte    { return []byte{1, peer, seq} }
func fireTimer(i byte) []byte          { return []byte{2, 0, i} }
func dataFrom(peer, seq byte) []byte   { return []byte{3, peer, seq} }
func linkDown(peer byte) []byte        { return []byte{4, peer, 0} }
func linkUp(peer byte) []byte          { return []byte{5, peer, 0} }

func schedule(steps ...[]byte) []byte { return slices.Concat(steps...) }

// relSeeds are the corpus FuzzReliableWindow starts from, each aimed at
// one path of the window.
var relSeeds = []struct {
	name string
	data []byte
}{
	// A burst, cumulative acks in steps, then stale, duplicate and
	// beyond-lastSeq acks, and the burst's timers fired after the acks.
	{"burst-acks", schedule(sendTo(0, 1), sendTo(0, 2), sendTo(0, 3), sendTo(0, 4), sendTo(0, 5),
		ackFrom(0, 2), ackFrom(0, 1), ackFrom(0, 2), ackFrom(0, 4), ackFrom(0, 200),
		fireTimer(0), fireTimer(0), fireTimer(0), fireTimer(0), fireTimer(0), sendTo(0, 6), ackFrom(0, 255))},
	// Frame 2 abandoned mid-window (frames 1 and 3 kept alive by
	// acks arriving late), then an ack past it, then new sends.
	{"abandon-mid", schedule(sendTo(0, 1), sendTo(0, 2), sendTo(0, 3),
		fireTimer(1), fireTimer(2), fireTimer(3), fireTimer(1), fireTimer(1), fireTimer(1),
		ackFrom(0, 1), fireTimer(0), fireTimer(0), fireTimer(0), fireTimer(0),
		ackFrom(0, 3), sendTo(0, 4), fireTimer(0), ackFrom(0, 4))},
	// Every frame of the window abandoned, then sends into the emptied
	// window and an ack of frames given up on.
	{"abandon-all", schedule(sendTo(1, 1), sendTo(1, 2),
		fireTimer(0), fireTimer(0), fireTimer(0), fireTimer(0), fireTimer(0), fireTimer(0),
		sendTo(1, 3), ackFrom(1, 2), ackFrom(1, 3), fireTimer(0))},
	// Receive side: in order, duplicates, a gap filled late, a frame
	// far ahead, and seq 0.
	{"receive", schedule(dataFrom(0, 1), dataFrom(0, 1), dataFrom(0, 3), dataFrom(0, 4), dataFrom(0, 3),
		dataFrom(0, 2), dataFrom(0, 5), dataFrom(0, 0), dataFrom(0, 255), dataFrom(0, 6))},
	// Session resets with frames outstanding and buffered, timers of
	// the old generation fired after the reset, and both peers and the
	// non-neighbor interleaved.
	{"resets", schedule(sendTo(0, 1), sendTo(1, 1), sendTo(2, 1), dataFrom(0, 2), linkDown(0),
		fireTimer(0), sendTo(0, 2), dataFrom(0, 1), dataFrom(0, 2), linkUp(0), linkUp(1),
		fireTimer(0), fireTimer(0), ackFrom(2, 1), dataFrom(2, 1), linkDown(2), sendTo(2, 5), fireTimer(0))},
	// A long burst that makes the window compact and grow under
	// partial acks.
	{"compact", func() []byte {
		var b []byte
		for i := byte(1); i <= 40; i++ {
			b = append(b, sendTo(0, i)...)
			if i%3 == 0 {
				b = append(b, ackFrom(0, i-1)...)
			}
		}
		return append(b, ackFrom(0, 39)...)
	}()},
}

// FuzzReliableWindow drives the reliable transport's send window and
// receive path in lockstep with the map-based model through arbitrary
// schedules of sends, acks, timer fires, received frames and session
// resets, and requires identical sends, retransmissions, abandons,
// duplicate suppressions, deliveries and timers.
func FuzzReliableWindow(f *testing.F) {
	for _, seed := range relSeeds {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { lockstepReliable(t, data) })
}

// TestReliableWindowMatchesModel runs the seed corpus, requiring each
// path it aims at to be reached, and a batch of random schedules.
func TestReliableWindowMatchesModel(t *testing.T) {
	var rexmits, dups, abandons int
	for _, seed := range relSeeds {
		r, d, a := lockstepReliable(t, seed.data)
		t.Logf("%s: %d retransmits, %d duplicates, %d abandons", seed.name, r, d, a)
		rexmits, dups, abandons = rexmits+r, dups+d, abandons+a
	}
	if rexmits == 0 || dups == 0 || abandons == 0 {
		t.Fatalf("the corpus reached %d retransmits, %d duplicates, %d abandons; want each", rexmits, dups, abandons)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 3*(20+rng.Intn(100)))
		for j := 0; j < len(data); j += 3 {
			// Mostly sends, acks and timer fires toward the first peer,
			// with small sequence numbers, so acks and frames land in the
			// window.
			data[j] = byte(rng.Intn(6))
			data[j+1] = byte(rng.Intn(4) / 3)
			data[j+2] = byte(rng.Intn(12))
		}
		lockstepReliable(t, data)
	}
}
