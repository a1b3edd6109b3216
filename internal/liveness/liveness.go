// Package liveness replaces the simulator's oracle link-down
// notification with per-link BFD-style sessions (RFC 5880's three-state
// up/down/init FSM), so failure *detection* latency becomes a modeled,
// sweepable quantity instead of an instantaneous oracle. The wrapped
// protocol no longer hears LinkDown the moment a carrier drops; it
// hears it when the local session declares the peer dead — DetectMult
// missed transmit intervals later — and it no longer hears LinkUp until
// a three-way handshake (down → init → up) has re-established the
// session. Everything the protocol sends toward a peer whose session is
// not up is gated (dropped locally), exactly like a real adjacency that
// has not reached Established.
//
// The FSM is demand-mode-inspired (RFC 5880 §6.6) so quiescent networks
// stay quiescent — the property the simulator's convergence detector
// ("no further update messages are sent") depends on. Sessions emit
// real, lossy control frames only during bounded active windows: the
// handshake, plus DetectMult+1 up-state confirmation frames each
// carrying the count of frames still to come. A session with frames
// still expected detects loss the asynchronous-mode way — a detect
// timer fires after DetectMult×TxInterval without an expected frame and
// kills the session (a false down when the carrier was actually up; the
// handshake then restarts, so sustained loss shows up as detection
// churn, not deadlock). Once both schedules complete, sessions hold
// zero pending timers. Steady-state carrier failures are then detected
// analytically: the wrapper consumes the simulator's LinkDown as
// "carrier lost", and schedules the inner protocol's LinkDown after the
// phase-exact asynchronous-mode delay — the remainder of the virtual
// periodic-frame schedule plus the full detect window. A carrier that
// returns inside that window is a sub-detection flap: invisible, as it
// is to real BFD.
//
// Layering: Wrap goes outside sim.Reliable —
// liveness.Wrap(sim.Reliable(proto, tcfg), lcfg) — so the wrapper hears
// raw carrier events and its control frames bypass the retransmitting
// transport (BFD rides raw datagrams; a retransmitted liveness probe
// would defeat its purpose). The transport's accounting still reaches
// the simulator through sim.BaseEnv. The wrapper deliberately does not
// implement Snapshotter: harnesses that checkpoint fall back to cold
// starts, the same trade sim.Reliable makes.
package liveness

import (
	"fmt"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/wire"
)

// State is a session's FSM state, numbered as on the wire.
type State uint8

// The three session states (RFC 5880 §6.2; AdminDown is not modeled).
const (
	StateDown State = wire.BFDStateDown
	StateInit State = wire.BFDStateInit
	StateUp   State = wire.BFDStateUp
)

// String names the state like the watchdog diagnostics expect.
func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateInit:
		return "init"
	case StateUp:
		return "up"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Config tunes the detector.
type Config struct {
	// TxInterval is the control-frame transmit interval (RFC 5880's
	// DesiredMinTxInterval). Default 5 ms.
	TxInterval time.Duration
	// DetectMult is the detection multiplier: a session is declared down
	// after DetectMult×TxInterval without an expected frame. Default 3.
	DetectMult int
}

func (c Config) interval() time.Duration {
	if c.TxInterval > 0 {
		return c.TxInterval
	}
	return 5 * time.Millisecond
}

func (c Config) mult() int {
	if c.DetectMult > 0 {
		return c.DetectMult
	}
	return 3
}

// DetectionTime is the detect window: DetectMult × TxInterval. A
// steady-state carrier failure is detected at most this long (and at
// least this minus one TxInterval) after it happens.
func (c Config) DetectionTime() time.Duration {
	return time.Duration(c.mult()) * c.interval()
}

// ControlFrame is one session control message: the sender's FSM state
// and — meaningful in up state — how many more frames the sender's
// current transmit schedule will emit (0 = final frame, the session
// goes quiet). Control frames carry no routing-update units and bypass
// the reliable transport.
type ControlFrame struct {
	State     State
	Remaining uint32
}

var _ sim.Message = ControlFrame{}
var _ sim.ByteSizer = ControlFrame{}

// Kind implements sim.Message.
func (ControlFrame) Kind() string { return "bfd.ctl" }

// Units implements sim.Message: liveness probes carry no update units.
func (ControlFrame) Units() int { return 0 }

// WireBytes implements sim.ByteSizer with the internal/wire encoding.
func (f ControlFrame) WireBytes() int {
	return wire.BFDControlSize(wire.BFDControl{State: uint8(f.State), Remaining: f.Remaining})
}

// expectActive is the peerRemaining sentinel meaning "the peer owes us
// its whole confirmation schedule" — set when we reach up before having
// seen any of the peer's up-state frames.
const expectActive = 1 << 30

// session is the per-adjacency FSM state.
type session struct {
	state State
	// gen invalidates timers: every transition (and every carrier event)
	// bumps it, and pending tx/detect/analytic-detection timers compare
	// it before acting.
	gen uint64
	// carrierUp mirrors the simulator's link state (from LinkDown/LinkUp
	// events); innerUp is what the wrapped protocol has been told.
	carrierUp bool
	innerUp   bool
	// upSince anchors the virtual periodic-frame schedule that the
	// analytic steady-state detection path replays.
	upSince time.Duration
	// remaining counts confirmation frames this side still owes its
	// current up-state schedule; peerRemaining is what the peer's latest
	// frame said it still owed (expectActive until heard).
	remaining     int
	peerRemaining int
	// lastRx is the arrival time of the last control frame from the
	// peer; since is the last FSM transition time (diagnostics).
	lastRx time.Duration
	since  time.Duration
}

// Node is the per-node detector wrapping one protocol instance.
type Node struct {
	inner sim.Protocol
	env   sim.Env
	lenv  livEnv
	cfg   Config
	sess  sim.PeerTable[session]

	// Local accounting, aggregated per run by Collect.
	stats SessionStats
}

var _ sim.Protocol = (*Node)(nil)
var _ sim.SessionReporter = (*Node)(nil)

// Wrap gives every node of inner a per-link liveness detector. A run
// without one (the simulator's instantaneous link notifications) uses
// inner itself.
func Wrap(inner sim.Builder, cfg Config) sim.Builder {
	return func(env sim.Env) sim.Protocol {
		n := &Node{env: env, cfg: cfg, sess: sim.NewPeerTable[session](env.Neighbors())}
		n.lenv = livEnv{Env: env, n: n}
		n.inner = inner(&n.lenv)
		return n
	}
}

// livEnv is the wrapped protocol's view of the world: sends toward
// peers whose session is not up are gated, and LinkIsUp reports session
// state rather than carrier state.
type livEnv struct {
	sim.Env
	n *Node
}

func (e *livEnv) Send(to routing.NodeID, msg sim.Message) {
	if s := e.n.sess.Get(to); s == nil || !s.innerUp {
		e.n.stats.GatedSends++
		tele.gatedSends.Inc()
		return
	}
	e.n.env.Send(to, msg)
}

func (e *livEnv) LinkIsUp(peer routing.NodeID) bool {
	s := e.n.sess.Get(peer)
	return s != nil && s.innerUp
}

// UnwrapEnv implements sim.EnvUnwrapper, so sim.Reliable's accounting
// hooks (and any other type-asserted extension) reach the simulator's
// own environment through this wrapper.
func (e *livEnv) UnwrapEnv() sim.Env { return e.Env }

// Inner returns the wrapped protocol, so sim.Unwrap (the invariant
// checker's and the forwarding walker's peel) reaches the RIB through
// the detector.
func (n *Node) Inner() sim.Protocol { return n.inner }

// LinkSessions implements sim.SessionReporter for watchdog stall
// diagnostics, in deterministic (sorted-neighbor) order.
func (n *Node) LinkSessions() []sim.LinkSession {
	nbs := n.env.Neighbors()
	out := make([]sim.LinkSession, 0, len(nbs))
	for _, nb := range nbs {
		s := n.sess.Get(nb.ID)
		if s == nil {
			continue
		}
		out = append(out, sim.LinkSession{Peer: nb.ID, State: s.state.String(), Since: s.since})
	}
	return out
}

func (n *Node) session(peer routing.NodeID) *session {
	s := n.sess.Get(peer)
	if s == nil {
		s = &session{state: StateDown, peerRemaining: expectActive}
		n.sess.Set(peer, s)
	}
	return s
}

// Start implements sim.Protocol: the inner protocol starts with every
// session down (its LinkIsUp view is all-false), then handshakes kick
// off on every adjacency whose carrier is up. The protocol learns its
// neighborhood through staggered LinkUp deliveries as sessions
// establish — its crash-recovery resync path.
func (n *Node) Start(env sim.Env) {
	n.env = env
	n.lenv.Env = env
	n.inner.Start(&n.lenv)
	for _, nb := range env.Neighbors() {
		s := n.session(nb.ID)
		s.carrierUp = env.LinkIsUp(nb.ID)
		if s.carrierUp {
			n.startHandshake(nb.ID, s)
		}
	}
}

// Handle implements sim.Protocol: control frames feed the FSM; protocol
// traffic from peers whose session is not up is gated (it raced a
// session transition in flight — the reliable transport's
// retransmission recovers anything that matters once the session is
// re-established).
func (n *Node) Handle(from routing.NodeID, msg sim.Message) {
	if f, ok := msg.(ControlFrame); ok {
		n.recvControl(from, f)
		return
	}
	s := n.session(from)
	if !s.innerUp {
		n.stats.GatedRecvs++
		tele.gatedRecvs.Inc()
		return
	}
	n.inner.Handle(from, msg)
}

// LinkDown implements sim.Protocol: the carrier dropped. An established
// session does not notice yet — asynchronous-mode detection is modeled
// analytically: the peer's virtual periodic frames (anchored at
// upSince) stop now, so the detect timer expires DetectMult×TxInterval
// after the last virtual frame we are deemed to have received. A
// carrier that returns before then cancels the detection: the flap was
// shorter than the detect window and the session never noticed.
func (n *Node) LinkDown(peer routing.NodeID) {
	s := n.session(peer)
	s.carrierUp = false
	s.gen++ // kill the session's pending tx/detect timers
	if !s.innerUp {
		// Mid-handshake carrier loss: the session silently falls back to
		// down; LinkUp restarts the handshake.
		s.state = StateDown
		s.since = n.env.Now()
		return
	}
	delay := n.detectionDelay(s)
	gen := s.gen
	n.env.After(delay, func() {
		if n.sess.Get(peer) != s || s.gen != gen {
			return
		}
		n.stats.Detections++
		n.stats.DetectTotal += delay
		if delay > n.stats.DetectMax {
			n.stats.DetectMax = delay
		}
		tele.detections.Inc()
		tele.detectMS.Observe(float64(delay) / float64(time.Millisecond))
		n.declareDown(peer, s)
	})
}

// LinkUp implements sim.Protocol: the carrier returned. A session that
// never noticed the outage (pending analytic detection) absorbs the
// flap; otherwise the three-way handshake starts from down.
func (n *Node) LinkUp(peer routing.NodeID) {
	s := n.session(peer)
	s.carrierUp = true
	s.gen++ // cancel any pending analytic detection
	s.since = n.env.Now()
	if s.innerUp {
		n.stats.FlapsAbsorbed++
		tele.flapsAbsorbed.Inc()
		return
	}
	n.startHandshake(peer, s)
}

// detectionDelay is the analytic asynchronous-mode detection latency at
// the current instant: the detect window measured from the last virtual
// periodic frame of the peer's up-state schedule (period TxInterval,
// phase anchored at the session's upSince).
func (n *Node) detectionDelay(s *session) time.Duration {
	tx := n.cfg.interval()
	elapsed := n.env.Now() - s.upSince
	if elapsed < 0 {
		elapsed = 0
	}
	return n.cfg.DetectionTime() - elapsed%tx
}

// startHandshake (re)enters down state and begins the periodic down-
// frame transmission that opens the three-way handshake.
func (n *Node) startHandshake(peer routing.NodeID, s *session) {
	n.transition(peer, s, StateDown)
	n.txNow(peer, s)
}

// declareDown takes the session down and, if the wrapped protocol
// believed it up, delivers the deferred LinkDown.
func (n *Node) declareDown(peer routing.NodeID, s *session) {
	n.transition(peer, s, StateDown)
	if s.innerUp {
		s.innerUp = false
		n.stats.SessionDowns++
		tele.sessionDowns.Inc()
		n.inner.LinkDown(peer)
	}
}

// transition moves the session to st, invalidating the prior state's
// timers, and runs the new state's entry actions.
func (n *Node) transition(peer routing.NodeID, s *session, st State) {
	s.gen++
	s.state = st
	s.since = n.env.Now()
	switch st {
	case StateInit:
		n.txNow(peer, s)
	case StateUp:
		s.upSince = n.env.Now()
		s.remaining = n.cfg.mult() + 1
		s.peerRemaining = expectActive
		if !s.innerUp {
			s.innerUp = true
			n.stats.Established++
			tele.established.Inc()
		}
		// Send the first confirmation frame before the protocol's LinkUp
		// burst, so (FIFO link) the peer's FSM reaches up before protocol
		// traffic arrives at its gate.
		n.txNow(peer, s)
		n.armDetect(peer, s)
		n.inner.LinkUp(peer)
	}
}

// txNow transmits the session's current state and re-arms the periodic
// transmit timer while the schedule has more to send. Down/init frames
// repeat every TxInterval until the handshake progresses (or the
// carrier drops); up-state frames count down the bounded confirmation
// schedule, the last one announcing Remaining 0.
func (n *Node) txNow(peer routing.NodeID, s *session) {
	if !s.carrierUp {
		return
	}
	f := ControlFrame{State: s.state}
	rearm := true
	if s.state == StateUp {
		if s.remaining <= 0 {
			return // schedule complete: the session is quiet
		}
		s.remaining--
		f.Remaining = uint32(s.remaining)
		rearm = s.remaining > 0
	}
	n.env.Send(peer, f)
	if rearm {
		n.armTx(peer, s)
	}
}

func (n *Node) armTx(peer routing.NodeID, s *session) {
	gen := s.gen
	n.env.After(n.cfg.interval(), func() {
		if n.sess.Get(peer) != s || s.gen != gen {
			return
		}
		n.txNow(peer, s)
	})
}

// armDetect arms the real (frame-driven) detect timer: if no further
// frame arrives within the detect window while the peer still owed
// DetectMult or more frames, the session is declared down. That is the
// asynchronous-mode rule — DetectMult consecutive expected frames
// missed — restricted to the active window; a peer whose schedule
// simply completed (fewer than DetectMult frames still expected) goes
// quiet without killing the session.
func (n *Node) armDetect(peer routing.NodeID, s *session) {
	gen := s.gen
	rx := s.lastRx
	n.env.After(n.cfg.DetectionTime(), func() {
		if n.sess.Get(peer) != s || s.gen != gen || s.state != StateUp {
			return
		}
		if s.lastRx != rx {
			return // later frames arrived; their own timers cover the window
		}
		if s.peerRemaining < n.cfg.mult() {
			return // peer's schedule ended inside the window: quiet, not dead
		}
		// Loss killed the active window (the carrier is still up — a
		// carrier loss would have bumped gen): a false down. Declare it
		// and restart the handshake.
		n.stats.FalseDowns++
		tele.falseDowns.Inc()
		n.declareDown(peer, s)
		n.txNow(peer, s)
	})
}

// pollReply answers a peer still climbing (init) while we are already
// up: resend our up state outside the schedule so the peer can finish
// its handshake even after its copy of our confirmation frames was
// lost.
func (n *Node) pollReply(peer routing.NodeID, s *session) {
	if !s.carrierUp {
		return
	}
	rem := s.remaining
	if rem < 0 {
		rem = 0
	}
	n.env.Send(peer, ControlFrame{State: StateUp, Remaining: uint32(rem)})
}

// recvControl drives the FSM on a received control frame (RFC 5880
// §6.8.6, collapsed to the modeled subset).
func (n *Node) recvControl(from routing.NodeID, f ControlFrame) {
	s := n.session(from)
	if !s.carrierUp {
		return // stale frame raced a carrier drop
	}
	s.lastRx = n.env.Now()
	switch f.State {
	case StateDown:
		switch s.state {
		case StateDown:
			n.transition(from, s, StateInit)
		case StateInit:
			// Peer hasn't seen our init yet; the periodic init tx covers it.
		case StateUp:
			// Peer restarted or reset the session: ours dies with it, and
			// the peer's down frame doubles as handshake progress.
			n.declareDown(from, s)
			n.transition(from, s, StateInit)
		}
	case StateInit:
		switch s.state {
		case StateDown, StateInit:
			n.transition(from, s, StateUp)
		case StateUp:
			n.pollReply(from, s)
		}
	case StateUp:
		switch s.state {
		case StateDown:
			// We hold the session down (e.g. declared down on loss); the
			// periodic down tx resets the peer, nothing to do here.
		case StateInit:
			n.transition(from, s, StateUp)
			s.peerRemaining = int(f.Remaining)
			if f.Remaining > 0 {
				n.armDetect(from, s)
			}
		case StateUp:
			s.peerRemaining = int(f.Remaining)
			if f.Remaining > 0 {
				n.armDetect(from, s)
			}
		}
	}
}

// SessionStats is one node's (or, via Collect, one run's) liveness
// accounting.
type SessionStats struct {
	// Established counts session establishments (inner LinkUp deliveries).
	Established int64
	// SessionDowns counts sessions declared down while the inner
	// protocol believed them up (inner LinkDown deliveries).
	SessionDowns int64
	// Detections counts steady-state carrier failures detected via the
	// analytic asynchronous-mode path; DetectTotal/DetectMax aggregate
	// their latencies (failure to inner LinkDown).
	Detections  int64
	DetectTotal time.Duration
	DetectMax   time.Duration
	// FalseDowns counts sessions killed by frame loss while the carrier
	// was up; FlapsAbsorbed counts carrier flaps shorter than the detect
	// window that established sessions never noticed.
	FalseDowns    int64
	FlapsAbsorbed int64
	// GatedSends/GatedRecvs count protocol messages dropped at the
	// session gate (session not up in the send/receive direction).
	GatedSends int64
	GatedRecvs int64
}

// Add folds o into s.
func (s *SessionStats) Add(o SessionStats) {
	s.Established += o.Established
	s.SessionDowns += o.SessionDowns
	s.Detections += o.Detections
	s.DetectTotal += o.DetectTotal
	if o.DetectMax > s.DetectMax {
		s.DetectMax = o.DetectMax
	}
	s.FalseDowns += o.FalseDowns
	s.FlapsAbsorbed += o.FlapsAbsorbed
	s.GatedSends += o.GatedSends
	s.GatedRecvs += o.GatedRecvs
}

// MeanDetect returns the mean analytic detection latency (0 when none
// occurred).
func (s SessionStats) MeanDetect() time.Duration {
	if s.Detections == 0 {
		return 0
	}
	return s.DetectTotal / time.Duration(s.Detections)
}

// Stats returns this node's accounting.
func (n *Node) Stats() SessionStats { return n.stats }

// Collect sums the liveness accounting of every wrapped node in net, in
// deterministic node order. Nodes that are not liveness-wrapped (or
// currently crashed and rebuilt) contribute what their current instance
// recorded.
func Collect(net *sim.Network, ids []routing.NodeID) SessionStats {
	var out SessionStats
	for _, id := range ids {
		if ln, ok := net.Node(id).(*Node); ok {
			out.Add(ln.Stats())
		}
	}
	return out
}
