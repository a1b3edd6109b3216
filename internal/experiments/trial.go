package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"centaur/internal/centaur"
	"centaur/internal/forward"
	"centaur/internal/policy"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
	"centaur/internal/topology"
	"centaur/internal/trace"
)

// maxEvents bounds each simulation run; all protocols quiesce far below
// this, so hitting it indicates a bug rather than a slow run.
const maxEvents = 500_000_000

// hashedPolicy is the Gao-Rexford policy with per-node hashed
// tie-breaks, matching the static experiments (see
// policy.GaoRexford.HashedTieBreak for why).
var hashedPolicy = policy.GaoRexford{TieBreak: policy.TieHashed}

// hashedSolve cold-solves g under hashedPolicy: the ground truth of
// every simulated grid.
func hashedSolve(g *topology.Graph) (*solver.Solution, error) {
	return solver.SolveOpts(g, solver.Options{TieBreak: hashedPolicy.TieBreak})
}

// hashedCentaur builds Centaur under hashedPolicy with cfg's other
// options.
func hashedCentaur(cfg centaur.Config) sim.Builder {
	cfg.Policy = hashedPolicy
	return centaur.New(cfg)
}

// trial is one unit of simulation work: one network and what is
// measured on it. It is the only code in this package that builds a
// network. The flip, reliability, adversarial, ladder and aggregation
// grids each supply only what is specific to them — a setup hook and a
// body — and run their trials through runTrials.
//
// Determinism: a grid creates its trials, and with them their trace
// chunks, serially in grid order, and every body writes only into its
// own result slots, so results, counters and the concatenated trace are
// identical for every worker count.
type trial struct {
	// label prefixes the trial's errors ("experiments: figure 6 centaur").
	label     string
	topo      *topology.Graph
	build     sim.Builder
	delaySeed int64
	// budget caps every run to quiescence; 0 means maxEvents.
	budget int64
	// series names the trial in telemetry ("fig6.centaur", "rel.bgp").
	series string
	tele   *telemetry.Registry
	chunk  *trace.Chunk
	// warm makes the cold start a warm-up: the network is quiesced
	// before the tracker attaches and the body runs (the flip grids).
	// Otherwise the body measures the cold start itself.
	warm bool
	// fork, when non-nil, is the series' shared checkpoint: a warm trial
	// forks its network from it instead of cold-starting one.
	fork *forkSource
	// flows/flowRate install a data-plane tracker on the network.
	flows    []forward.Flow
	flowRate float64
	// setup, when non-nil, runs on a freshly built network before
	// anything is simulated: fault injection, attack markers, detectors.
	setup func(net *sim.Network)
	// body measures the trial; tracker is nil without flows.
	body func(t *trial, net *sim.Network, tracker *forward.Tracker) error
}

// run acquires the trial's network, attaches the tracker and runs the
// body.
func (t *trial) run() error {
	net, err := t.network()
	if err == nil {
		var tracker *forward.Tracker
		if len(t.flows) > 0 {
			tracker = forward.NewTracker(net, forward.Config{Flows: t.flows, PacketRate: t.flowRate})
			tracker.Install()
		}
		err = t.body(t, net, tracker)
	}
	if err != nil && t.label != "" {
		return fmt.Errorf("%s: %w", t.label, err)
	}
	return err
}

// network returns the trial's network: a fork of the series' checkpoint
// when there is one (falling back to a cold start if the protocol is
// not snapshottable), otherwise a new network with the trace chunk
// subscribed and setup applied — quiesced when the trial is warm,
// untouched otherwise.
func (t *trial) network() (*sim.Network, error) {
	if t.fork != nil {
		cp, err := t.fork.checkpoint()
		switch {
		case err == nil:
			t0 := time.Now()
			net, err := cp.Fork(t.delaySeed)
			if err != nil {
				return nil, err
			}
			stageClock.fork.Add(int64(time.Since(t0)))
			t.tele.Counter("sim.forks").Inc()
			return net, nil
		case !errors.Is(err, sim.ErrNotSnapshottable):
			return nil, err
		}
	}
	t0 := time.Now()
	net, err := sim.NewNetwork(sim.Config{Topology: t.topo, Build: t.build, DelaySeed: t.delaySeed})
	if err != nil {
		return nil, err
	}
	// The trace chunk subscribes first, so every event setup's layers
	// emit lands in the chunk after the event that caused it.
	if t.chunk != nil {
		net.Observe(t.chunk.Observe)
	}
	if t.setup != nil {
		t.setup(net)
	}
	if !t.warm {
		return net, nil
	}
	if o := t.converge(net); o.err != nil {
		return nil, fmt.Errorf("experiments: cold start: %w", o.err)
	}
	stageClock.coldStart.Add(int64(time.Since(t0)))
	t.tele.Counter("sim.coldstarts").Inc()
	return net, nil
}

// outcome is one run to quiescence: conv is the last send's instant, st
// the accounting, and err the watchdog's diagnosis when the budget ran
// out first (st is then partial and conv 0).
type outcome struct {
	conv time.Duration
	st   sim.Stats
	err  error
}

// converge runs net to quiescence within the trial's budget.
func (t *trial) converge(net *sim.Network) outcome {
	budget := t.budget
	if budget <= 0 {
		budget = maxEvents
	}
	conv, st, err := net.RunToConvergence(budget)
	return outcome{conv, st, err}
}

// sample renders the outcome as a grid sample's Converged, Diagnostic
// and ConvergenceTime fields.
func (o outcome) sample() (bool, string, time.Duration) {
	if o.err != nil {
		return false, o.err.Error(), 0
	}
	return true, "", o.conv
}

// record folds one run's accounting into the trial's registry: the
// process-wide simulator totals, the series' counters by message kind,
// and conv into the series' distribution named by suffix.
func (t *trial) record(st sim.Stats, suffix string, conv time.Duration) {
	r := t.tele
	if !r.Enabled() {
		return
	}
	r.Counter("sim.msgs").Add(st.Messages)
	r.Counter("sim.units").Add(st.Units)
	r.Counter("sim.bytes").Add(st.Bytes)
	r.Counter("sim.route_changes").Add(st.RouteChanges)
	for kind, msgs := range st.MsgsByKind {
		r.Counter(t.series + ".msgs." + kind).Add(msgs)
		r.Counter(t.series + ".units." + kind).Add(st.UnitsByKind[kind])
		r.Counter(t.series + ".bytes." + kind).Add(st.BytesByKind[kind])
	}
	r.Distribution(t.series + suffix).Observe(float64(conv) / float64(time.Millisecond))
}

// recordLoss adds the run's dropped and undeliverable messages to the
// process-wide totals (the flip and reliability grids count them).
func (t *trial) recordLoss(st sim.Stats) {
	t.tele.Counter("sim.dropped").Add(st.Dropped)
	t.tele.Counter("sim.undeliverable").Add(st.Undeliverable)
}

// coldStats is the body of a trial that measures its cold start alone:
// it runs the network to quiescence and keeps the accounting in out.
func coldStats(out *sim.Stats) func(*trial, *sim.Network, *forward.Tracker) error {
	return func(t *trial, net *sim.Network, _ *forward.Tracker) error {
		o := t.converge(net)
		if o.err != nil {
			return fmt.Errorf("cold start: %w", o.err)
		}
		*out = o.st
		return nil
	}
}

// runTrials runs a flat trial list on the bounded pool, feeding the
// process-wide progress monitor. Grids with several fan-out dimensions
// flatten them into one list, so the pool is never nested.
func runTrials(trials []trial, workers int) error {
	poolProgress.total.Add(int64(len(trials)))
	return parallelEach(len(trials), workers, func(i int) error {
		err := trials[i].run()
		poolProgress.done.Add(1)
		return err
	})
}

// forkSource is the one-cold-start-per-series machinery behind
// converged-state checkpointing: the first trial that needs a network
// cold-starts the template, checkpoints it at quiescence, and every
// trial of the series then forks the checkpoint under its own delay
// seed. Forking is sound because the converged state under the
// experiments' Gao–Rexford policies is the unique stable solution,
// independent of message timing — see sim/checkpoint.go for the full
// argument and the equivalence tests. checkpoint() is safe for
// concurrent use.
type forkSource struct {
	// template is the series' warm trial under its base delay seed,
	// without trace chunk or fork source.
	template trial

	once sync.Once
	cp   *sim.Checkpoint
	err  error
}

// checkpoint returns the series' shared checkpoint, cold-starting the
// template network on first call. A template whose protocol does not
// implement sim.Snapshotter reports sim.ErrNotSnapshottable; trials
// fall back to their own cold starts.
func (s *forkSource) checkpoint() (*sim.Checkpoint, error) {
	s.once.Do(func() {
		net, err := s.template.network()
		if err == nil {
			s.cp, err = net.Checkpoint()
		}
		if err != nil {
			s.err = err
			return
		}
		tele := s.template.tele
		tele.Counter("sim.checkpoints").Inc()
		tele.Gauge("sim.checkpoint_bytes").SetMax(s.cp.StateBytes())
	})
	return s.cp, s.err
}

// stageClock accumulates wall-clock nanoseconds per harness stage,
// process-wide like poolProgress. Stages overlap across workers, so the
// sums are cumulative (CPU-style) times, not elapsed time. Wall-clock
// is inherently nondeterministic, so these live outside the telemetry
// registry — registry snapshots stay byte-identical across runs.
var stageClock struct {
	coldStart atomic.Int64
	fork      atomic.Int64
	flips     atomic.Int64
}

// StageTimings reports the cumulative wall-clock this process has spent
// cold-starting networks, forking checkpoints, and measuring flip
// phases, across all experiment trials so far. Callers (centaur-bench)
// difference successive readings to attribute time per figure.
func StageTimings() (coldStart, fork, flips time.Duration) {
	return time.Duration(stageClock.coldStart.Load()),
		time.Duration(stageClock.fork.Load()),
		time.Duration(stageClock.flips.Load())
}
