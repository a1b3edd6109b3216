package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/faults"
	"centaur/internal/forward"
	"centaur/internal/invariant"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/pgraph"
	"centaur/internal/policy"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/telemetry"
	"centaur/internal/topology"
)

// maxEvents is the convergence watchdog's budget, as in internal/experiments.
const maxEvents = 500_000_000

// hashedPolicy is the policy every experiment of the repository runs
// the path-vector protocols under; the oracle solves with its tie-break.
var hashedPolicy = policy.GaoRexford{TieBreak: policy.TieHashed}

// workload is one named set of inputs. setup builds everything the
// measured phase needs and leaves it converged; round does one fixed
// batch of measured work (round 0 always the same work for one seed);
// finish verifies the final state, with everything still referenced.
type workload interface {
	setup(b *bench)
	round(b *bench, r int)
	finish(b *bench)
}

// simTotals sums the simulated statistics of every phase a bench ran.
type simTotals struct {
	events, messages, units, bytes, routeChanges int64
	dropped, undeliverable                       int64
	retransmits, dupSuppressed, abandoned        int64
	simTime                                      time.Duration
}

// bench is the state of one pass over a workload: one set-up and the
// rounds that follow it, either untraced or traced.
type bench struct {
	seed int64
	tr   *tracer // nil for an untraced pass
	reg  *telemetry.Registry

	attempted int
	failed    int
	failures  []string // the first few, for the report

	// digest hashes the simulated statistics of set-up and round 0.
	digest    hash.Hash64
	digesting bool

	sim      simTotals
	ops      []float64 // operation latencies, ms
	excluded usage     // time and allocation spent inside check, charged to no round

	// Per-layer readings taken where the work happens.
	topogenS, solveS, checkS, checkFlowsS float64
	solveDests                            int
	tableMB                               float64
	resolveMS, resolveDirty               []float64
	table45S, figure5S                    float64
	figure5Links                          int

	// What the probes of a traced run may look at after the rounds.
	centaurNet *sim.Network
	forkNet    *sim.Network
	walkNet    *sim.Network
	flows      []forward.Flow
}

func newBench(seed int64, tr *tracer, reg *telemetry.Registry) *bench {
	return &bench{seed: seed, tr: tr, reg: reg, digest: fnv.New64a(), digesting: true}
}

// layer wraps builder in the tracer's boundary wrappers on a traced
// pass and returns it unchanged otherwise.
func (b *bench) layer(up, below string, builder sim.Builder) sim.Builder {
	if b.tr == nil {
		return builder
	}
	return b.tr.wrap(up, below, builder)
}

// note folds simulated statistics into the digest. Host times must
// never be passed here.
func (b *bench) note(format string, args ...any) {
	if b.digesting {
		fmt.Fprintf(b.digest, format, args...)
	}
}

// attempt counts one operation and records why it failed, if it did.
func (b *bench) attempt(err error) bool {
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, err.Error())
	}
	return false
}

// check runs an oracle check whose cost belongs to no round or
// operation; it returns the wall time the check took.
func (b *bench) check(fn func()) time.Duration {
	u0 := readUsage()
	fn()
	d := readUsage().sub(u0)
	b.excluded = b.excluded.add(d)
	return d.wall
}

// checkNet verifies a quiesced, fully restored network against the
// oracle (nil for OSPF, which is checked against shortest paths).
func (b *bench) checkNet(what string, net *sim.Network, sol *solver.Solution) error {
	var vs []invariant.Violation
	b.checkS += b.check(func() {
		if sol != nil {
			vs = invariant.Check(net, sol)
		} else {
			vs = invariant.CheckNextHops(net)
		}
	}).Seconds()
	if len(vs) > 0 {
		return fmt.Errorf("%s: %d invariant violations, e.g. %s", what, len(vs), vs[0])
	}
	return nil
}

// phase runs one simulated phase to quiescence: it zeroes the message
// accounting, applies action (nil for a cold start), runs the network,
// and folds the statistics into the totals and the digest. The returned
// duration is the host time of the phase.
func (b *bench) phase(what string, net *sim.Network, action func() bool) (time.Duration, sim.Stats, error) {
	net.ResetStats()
	ev0, now0 := net.Stats().Events, net.Now() // Events survives ResetStats
	t0 := time.Now()
	if action != nil && !action() {
		return 0, sim.Stats{}, fmt.Errorf("%s: link was not in the expected state", what)
	}
	tRun := time.Now()
	conv, st, err := net.RunToConvergence(maxEvents)
	wall := time.Since(t0)
	if b.tr != nil {
		b.tr.runNS += int64(time.Since(tRun))
	}
	if err != nil {
		return wall, st, fmt.Errorf("%s: %w", what, err)
	}
	b.sim.events += st.Events - ev0
	b.sim.messages += st.Messages
	b.sim.units += st.Units
	b.sim.bytes += st.Bytes
	b.sim.routeChanges += st.RouteChanges
	b.sim.dropped += st.Dropped
	b.sim.undeliverable += st.Undeliverable
	b.sim.retransmits += st.Retransmits
	b.sim.dupSuppressed += st.DupSuppressed
	b.sim.abandoned += st.TransportAbandoned
	b.sim.simTime += net.Now() - now0
	b.note("%s ev=%d m=%d u=%d by=%d rc=%d dr=%d last=%d conv=%d now=%d\n", what, st.Events-ev0,
		st.Messages, st.Units, st.Bytes, st.RouteChanges, st.Dropped, st.LastSend, conv, net.Now()-now0)
	return wall, st, nil
}

// generate times a topology generator.
func (b *bench) generate(gen func() (*topology.Graph, error)) *topology.Graph {
	t0 := time.Now()
	g, err := gen()
	b.topogenS += time.Since(t0).Seconds()
	if err != nil {
		panic(fmt.Sprintf("benchmark: topology generation: %v", err)) // sizes are constants: a bug
	}
	return g
}

// solve cold-solves g and records the solver's per-layer readings.
func (b *bench) solve(g *topology.Graph, tb policy.TieBreakMode) *solver.Solution {
	t0 := time.Now()
	sol, err := solver.SolveOpts(g, solver.Options{TieBreak: tb})
	b.solveS += time.Since(t0).Seconds()
	if err != nil {
		panic(fmt.Sprintf("benchmark: oracle solve: %v", err)) // generated graphs are valid: a bug
	}
	b.solveDests += g.NumNodes()
	b.tableMB += float64(sol.MemoryBytes()) / 1e6
	return sol
}

// converge cold-starts a network, checks it against the oracle (see
// checkNet) and counts the attempt. It returns nil when that failed, and
// the host time of the cold start without the check.
func (b *bench) converge(what string, g *topology.Graph, build sim.Builder, delaySeed int64, sol *solver.Solution) (*sim.Network, time.Duration) {
	t0 := time.Now()
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: delaySeed})
	if err == nil {
		_, _, err = b.phase(what, net, nil)
	}
	d := time.Since(t0)
	if err == nil {
		err = b.checkNet(what, net, sol)
	}
	if !b.attempt(err) {
		return nil, d
	}
	return net, d
}

// episode fails link e, waits for quiescence, restores it and waits
// again; between and after the two phases it calls the optional oracle
// hooks, whose time is not part of the returned latency.
func (b *bench) episode(what string, net *sim.Network, e topology.Edge, afterDown, afterUp func() error) (time.Duration, error) {
	down, _, err := b.phase(what+" down", net, func() bool { return net.FailLink(e.A, e.B) })
	if err == nil && afterDown != nil {
		err = afterDown()
	}
	if err != nil {
		return 0, err
	}
	up, _, err := b.phase(what+" up", net, func() bool { return net.RestoreLink(e.A, e.B) })
	if err == nil && afterUp != nil {
		err = afterUp()
	}
	return down + up, err
}

// sweep runs one episode on every link of g, in an order drawn from the
// seed and the round, and records each episode's latency.
func (b *bench) sweep(what string, net *sim.Network, g *topology.Graph, r int, hooks func(i int, e topology.Edge) (afterDown, afterUp func() error)) {
	edges := g.Edges()
	for i, ei := range b.order(r, len(edges)) {
		e := edges[ei]
		var afterDown, afterUp func() error
		if hooks != nil {
			afterDown, afterUp = hooks(i, e)
		}
		d, err := b.episode(what, net, e, afterDown, afterUp)
		if b.attempt(err) {
			b.ops = append(b.ops, float64(d)/1e6)
		}
	}
}

func setTelemetry(r *telemetry.Registry) {
	centaur.SetTelemetry(r)
	bgp.SetTelemetry(r)
	ospf.SetTelemetry(r)
	pgraph.SetTelemetry(r)
	solver.SetTelemetry(r)
	liveness.SetTelemetry(r)
	forward.SetTelemetry(r)
}

// counters reads the telemetry counters the per-layer metrics use.
func counters(r *telemetry.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, name := range r.CounterNames() {
		out[name] = r.Counter(name).Value()
	}
	return out
}

// pass is what one bench produced: per-round usage and the bench itself.
type pass struct {
	b      *bench
	w      workload
	setups []float64        // wall seconds of each set-up
	rounds []usage          // one entry per round, checks excluded
	counts map[string]int64 // telemetry counter deltas over the rounds
	gcCPU  float64          // collector CPU seconds over the rounds
}

// runPass sets the workload up `setups` times (keeping the last) and
// then runs rounds: exactly fixedRounds of them when that is positive,
// otherwise as many as fit in d (at least one).
func runPass(spec *workloadSpec, seed int64, tr *tracer, reg *telemetry.Registry, setups, fixedRounds int, d time.Duration) *pass {
	p := &pass{}
	for i := 0; i < setups; i++ {
		p.b, p.w = nil, nil // let the previous instance go before timing the next
		runtime.GC()
		b := newBench(seed, tr, reg)
		w := spec.New()
		t0 := time.Now()
		w.setup(b)
		p.setups = append(p.setups, (time.Since(t0) - b.excluded.wall).Seconds())
		p.b, p.w = b, w
	}
	b := p.b
	runtime.GC()
	c0, gc0 := counters(reg), gcCPUSeconds()
	start := time.Now()
	more := func(r int) bool {
		if fixedRounds > 0 {
			return r < fixedRounds
		}
		return r == 0 || time.Since(start) < d
	}
	for r := 0; more(r); r++ {
		ex0, u0 := b.excluded, readUsage()
		p.w.round(b, r)
		p.rounds = append(p.rounds, readUsage().sub(u0).sub(b.excluded.sub(ex0)))
		b.digesting = false
	}
	p.gcCPU = gcCPUSeconds() - gc0
	p.counts = counters(reg)
	for k, v := range c0 {
		p.counts[k] -= v
	}
	p.w.finish(b)
	return p
}

func (p *pass) digest() string { return fmt.Sprintf("%016x", p.b.digest.Sum64()) }

func (p *pass) total() usage {
	var t usage
	for _, u := range p.rounds {
		t = t.add(u)
	}
	return t
}

// order is the run's seed at work: the order in which round r visits
// its n fixed inputs.
func (b *bench) order(r, n int) []int {
	return newRand(b.seed*1_000_003 + int64(r)).Perm(n)
}

func shuffleEdges(edges []topology.Edge, seed int64) {
	rng := newRand(seed)
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
}

// attachPlan installs the churn fault plan on net, behind a timing
// injector on a traced pass.
func (b *bench) attachPlan(net *sim.Network, p churnPlan) {
	inj := faults.Attach(net, faults.Plan{Seed: size.InputSeed, Loss: p.Loss, Churn: p.FlapsPerS,
		FlapDown: p.FlapDown, Window: p.Window}, b.reg)
	if b.tr != nil {
		net.SetInjector(&tracedInjector{inner: inj, t: b.tr, layer: b.tr.layer("faults")})
	}
}
