// Checkpoint/Fork: snapshot a converged network once and stamp out
// independent copies of it, so an experiment that measures many events
// on the same converged state (the Figure 6–8 link-flip trials) pays
// for cold-start convergence once per (topology × protocol) instead of
// once per trial chunk.
//
// Why forking from one converged state is sound: under the Gao–Rexford
// policies all experiments use, the converged routing state is the
// unique stable solution and does not depend on message timing (Griffin
// et al.'s "safety"; see also Daggitt & Griffin's mechanized convergence
// results cited in PAPERS.md). Per-link delays only determine *when*
// convergence is reached, not *what* state it reaches, so a network
// cold-started under delay seed A holds — once quiesced — exactly the
// protocol state a cold start under delay seed B would reach. A fork
// therefore re-derives its own per-link delays from its own seed while
// reusing the template's converged protocol state, and every subsequent
// measurement (which reports durations and counts relative to the flip
// instant, never absolute times) is identical to one taken on a fresh
// cold start with that seed. The equivalence is asserted per protocol
// by TestForkMatchesColdStart.
package sim

import (
	"errors"
	"fmt"
)

// Snapshotter is implemented by protocol nodes that can deep-fork their
// converged state. ForkProtocol returns an independent copy of the node
// bound to env (the fork's environment): the copy and the original must
// never observe each other's subsequent mutations. Implementations must
// treat the receiver as read-only — many forks are taken from the same
// template concurrently. SnapshotBytes estimates the heap bytes a fork
// of this node retains, feeding the sim.checkpoint_bytes gauge.
type Snapshotter interface {
	Protocol
	ForkProtocol(env Env) Protocol
	SnapshotBytes() int
}

// ErrNotSnapshottable reports that a network cannot be checkpointed
// because at least one protocol node does not implement Snapshotter.
// Callers use errors.Is to fall back to per-run cold starts.
var ErrNotSnapshottable = errors.New("sim: protocol does not implement Snapshotter")

// ErrFaultsActive reports that a network cannot be checkpointed because
// a fault injector is installed. A fork re-derives deterministic state
// (per-link delays) from its own seed, but an injector's RNG position
// and its already-scheduled flap/crash closures cannot be captured, so
// forked trials would silently diverge from cold-started ones. Detach
// the injector (SetInjector(nil)) — or don't mix faults with
// checkpointing, as internal/experiments' reliability harness does.
var ErrFaultsActive = errors.New("sim: cannot checkpoint with an active fault injector")

// Checkpoint is an immutable snapshot of a quiesced network, taken with
// Network.Checkpoint. Fork may be called any number of times, from any
// goroutine, as long as the checkpointed network is no longer run or
// mutated. The checkpoint holds the template network itself (protocol
// state is copied lazily, at Fork time), so it stays alive until the
// last fork has been taken.
type Checkpoint struct {
	src        *Network
	stateBytes int64
}

// Checkpoint snapshots the network's converged state, failed links
// included. It requires the network to be quiesced (event queue drained
// — checkpointing with events in flight would need to serialize
// closures) and every protocol node to implement Snapshotter
// (ErrNotSnapshottable otherwise). The network must not be run or
// mutated afterwards: it becomes the shared read-only template every
// Fork copies from.
func (n *Network) Checkpoint() (*Checkpoint, error) {
	if n.injector != nil {
		return nil, ErrFaultsActive
	}
	if n.pq.queued != 0 {
		return nil, fmt.Errorf("sim: checkpoint requires a quiesced network (%d events pending)", n.pq.queued)
	}
	for i, down := range n.nodeDown {
		if down {
			return nil, fmt.Errorf("sim: checkpoint requires all nodes up (node %v is crashed)", n.idx.ID(i))
		}
	}
	var bytes int64
	for i, p := range n.nodes {
		s, ok := p.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("%w (node %v is %T)", ErrNotSnapshottable, n.idx.ID(i), p)
		}
		bytes += int64(s.SnapshotBytes())
	}
	return &Checkpoint{src: n, stateBytes: bytes}, nil
}

// StateBytes estimates the heap bytes one fork of this checkpoint
// retains (the sum of every node's SnapshotBytes).
func (c *Checkpoint) StateBytes() int64 { return c.stateBytes }

// Fork returns an independent network holding the checkpoint's
// converged protocol state, with fresh per-link delays drawn from
// delaySeed exactly as NewNetwork would draw them. The fork's clock and
// event sequence continue from the checkpoint (timers and measurements
// are all relative, so the absolute offset is immaterial), its event
// queue is empty, its links are up or down as in the checkpoint, and its
// stats are zero except the lifetime event count. No Start events are
// scheduled: the nodes are already converged. Safe to call concurrently.
func (c *Checkpoint) Fork(delaySeed int64) (*Network, error) {
	src := c.src
	n, err := newShell(Config{
		Topology:  src.topo,
		DelaySeed: delaySeed,
		MinDelay:  src.minDelay,
		MaxDelay:  src.maxDelay,
	}, src.idx)
	if err != nil {
		return nil, err
	}
	n.now = src.now
	n.seq = src.seq
	n.events = src.events
	// Span IDs continue from the template, so they stay unique per
	// network lineage; the active-cause registers are zero on a quiesced
	// template anyway (Run clears them on drain). Subscribers are not
	// inherited: a fork starts with an empty event stream.
	n.spanSeq = src.spanSeq
	// A link down in the template is down in the fork — its endpoints'
	// protocol state says so — whatever delay the fork drew for it.
	for i, ls := range src.links {
		n.links[i].up, n.links[i].since, n.links[i].epoch = ls.up, ls.since, ls.epoch
	}
	for i := range src.nodes {
		n.nodes[i] = src.nodes[i].(Snapshotter).ForkProtocol(&n.envs[i])
	}
	return n, nil
}
