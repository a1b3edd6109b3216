package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/experiments"
	"centaur/internal/forward"
	"centaur/internal/invariant"
	"centaur/internal/liveness"
	"centaur/internal/ospf"
	"centaur/internal/policy"
	"centaur/internal/sim"
	"centaur/internal/solver"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func centaurBuilder() sim.Builder {
	return centaur.New(centaur.Config{Policy: hashedPolicy, Incremental: true})
}

func brite(b *bench, n int) *topology.Graph {
	return b.generate(func() (*topology.Graph, error) { return topogen.BRITE(n, 2, size.InputSeed) })
}

// coldstart: an operation is a Centaur cold start to quiescence,
// checked against the solver; a round does one under each delay seed.
type coldstart struct {
	g     *topology.Graph
	sol   *solver.Solution
	build sim.Builder
	net   *sim.Network // the latest converged network
}

func (w *coldstart) converge(b *bench, delaySeed int64) (time.Duration, bool) {
	net, d := b.converge("coldstart", w.g, w.build, delaySeed, w.sol)
	if net != nil {
		w.net, b.centaurNet = net, net
	}
	return d, net != nil
}

// setup includes one warm-up cold start, so the first measured one does
// not pay for growing the heap.
func (w *coldstart) setup(b *bench) {
	w.g = brite(b, size.ColdstartNodes)
	w.sol = b.solve(w.g, hashedPolicy.TieBreak)
	w.build = b.layer("centaur", "sim", centaurBuilder())
	w.converge(b, size.InputSeed)
}

func (w *coldstart) round(b *bench, r int) {
	for _, i := range b.order(r, size.ColdstartDelays) {
		if d, ok := w.converge(b, size.InputSeed+int64(i)); ok {
			b.ops = append(b.ops, float64(d)/1e6)
		}
	}
}

func (w *coldstart) finish(*bench) {}

// flips: an operation is one fail-quiesce-restore-quiesce episode; a
// round runs one on every link of a converged Centaur network.
type flips struct {
	g   *topology.Graph
	sol *solver.Solution
	net *sim.Network
	// The oracle follows the simulated flips on a private graph clone,
	// advanced with the incremental solver.
	og   *topology.Graph
	osol *solver.Solution
}

func (w *flips) setup(b *bench) {
	w.g = brite(b, size.FlipsNodes)
	w.sol = b.solve(w.g, hashedPolicy.TieBreak)
	net, _ := b.converge("flips cold start", w.g, b.layer("centaur", "sim", centaurBuilder()), size.InputSeed, w.sol)
	if net == nil {
		return
	}
	w.net, b.centaurNet, b.forkNet = net, net, net
	w.og = w.g.Clone()
	var err error
	if w.osol, err = w.sol.CloneOn(w.og); err != nil {
		panic(fmt.Sprintf("benchmark: cloning the oracle: %v", err)) // og is a clone of sol's graph: a bug
	}
}

// resolveAndCheck advances the oracle over a flip already applied to
// its graph and compares the quiesced network with it.
func resolveAndCheck(b *bench, what string, net *sim.Network, osol *solver.Solution, e topology.Edge) error {
	var err error
	var vs []invariant.Violation
	b.check(func() {
		t0 := time.Now()
		var st solver.ResolveStats
		if st, err = osol.Resolve([]solver.Flip{{A: e.A, B: e.B}}); err != nil {
			return
		}
		b.resolveMS = append(b.resolveMS, float64(time.Since(t0))/1e6)
		b.resolveDirty = append(b.resolveDirty, float64(st.Dirty))
		t0 = time.Now()
		vs = invariant.CheckAt(net, osol)
		b.checkS += time.Since(t0).Seconds()
	})
	if err != nil {
		return fmt.Errorf("%s: oracle re-solve: %w", what, err)
	}
	if len(vs) > 0 {
		return fmt.Errorf("%s: %d invariant violations, e.g. %s", what, len(vs), vs[0])
	}
	return nil
}

func (w *flips) round(b *bench, r int) {
	if w.net == nil {
		return
	}
	b.sweep("flips", w.net, w.g, r, func(i int, e topology.Edge) (func() error, func() error) {
		if r != 0 || i%size.FlipsCheckStep != 0 {
			return nil, nil
		}
		return func() error {
				w.og.RemoveEdge(e.A, e.B)
				return resolveAndCheck(b, "flips after failing "+e.String(), w.net, w.osol, e)
			}, func() error {
				if err := w.og.AddEdge(e.A, e.B, e.Rel); err != nil {
					return err
				}
				return resolveAndCheck(b, "flips after restoring "+e.String(), w.net, w.osol, e)
			}
	})
}

func (w *flips) finish(b *bench) {
	if w.net != nil {
		b.attempt(b.checkNet("flips final state", w.net, w.sol))
	}
}

// baseline: the flips workload under BGP (no MRAI) and then OSPF on a
// CAIDA-like graph, without wrappers.
type baseline struct {
	g    *topology.Graph
	sol  *solver.Solution
	bgp  *sim.Network
	ospf *sim.Network
}

func (w *baseline) setup(b *bench) {
	w.g = b.generate(func() (*topology.Graph, error) { return topogen.CAIDALike(size.BaselineNodes, size.InputSeed) })
	w.sol = b.solve(w.g, hashedPolicy.TieBreak)
	w.bgp, _ = b.converge("bgp cold start", w.g, b.layer("bgp", "sim", bgp.New(bgp.Config{Policy: hashedPolicy})), size.InputSeed, w.sol)
	w.ospf, _ = b.converge("ospf cold start", w.g, b.layer("ospf", "sim", ospf.New()), size.InputSeed, nil)
}

func (w *baseline) round(b *bench, r int) {
	if w.bgp != nil {
		b.sweep("bgp", w.bgp, w.g, r, nil)
	}
	if w.ospf != nil {
		b.sweep("ospf", w.ospf, w.g, r, nil)
	}
}

func (w *baseline) finish(b *bench) {
	if w.bgp != nil {
		b.attempt(b.checkNet("bgp final state", w.bgp, w.sol))
	}
	if w.ospf != nil {
		b.attempt(b.checkNet("ospf final state", w.ospf, nil))
	}
}

// churn: a round attaches the fault plan to a converged network behind
// the full wrapper stack and runs to quiescence, once for Centaur and
// once for BGP. The loop is open in simulated time: flaps fire on the
// plan's schedule whether or not the network has converged.
type churn struct {
	g     *topology.Graph
	sol   *solver.Solution
	flows []forward.Flow
	legs  []*churnLeg
}

type churnLeg struct {
	name    string
	net     *sim.Network
	tracker *forward.Tracker
}

// stack composes kernel | liveness | sim.Reliable | protocol.
func (w *churn) stack(b *bench, name string, proto sim.Builder) sim.Builder {
	rel := sim.Reliable(b.layer(name, "transport", proto), sim.ReliableConfig{})
	liv := liveness.Wrap(b.layer("transport", "liveness", rel), liveness.Config{TxInterval: size.ChurnPlan.TxInterval})
	return b.layer("liveness", "sim", liv)
}

func (w *churn) setup(b *bench) {
	w.g = brite(b, size.ChurnNodes)
	w.sol = b.solve(w.g, hashedPolicy.TieBreak)
	// Only policy-reachable pairs: a blackhole must mean a fault.
	for _, f := range forward.SampleFlows(w.g, size.ChurnFlows, size.InputSeed) {
		if _, ok := w.sol.Path(f.Src, f.Dst); ok {
			w.flows = append(w.flows, f)
		}
	}
	for _, p := range []struct {
		name  string
		build sim.Builder
	}{
		{"centaur", centaurBuilder()},
		{"bgp", bgp.New(bgp.Config{Policy: hashedPolicy})},
	} {
		net, _ := b.converge("churn "+p.name+" cold start", w.g, w.stack(b, p.name, p.build), size.InputSeed, w.sol)
		if net == nil {
			continue
		}
		// Installed after convergence, so no window holds the cold start.
		tr := forward.NewTracker(net, forward.Config{Flows: w.flows})
		tr.Install()
		w.legs = append(w.legs, &churnLeg{name: p.name, net: net, tracker: tr})
		if p.name == "centaur" {
			b.centaurNet = net
		}
		b.walkNet, b.flows = net, w.flows
	}
}

func (w *churn) round(b *bench, r int) {
	var total time.Duration
	ok := len(w.legs) == 2
	for _, leg := range w.legs {
		detections, evals := b.reg.Counter("bfd.detections"), b.reg.Counter("forward.evals")
		det0, evals0 := detections.Value(), evals.Value()
		d, st, err := b.phase("churn "+leg.name, leg.net, func() bool {
			b.attachPlan(leg.net, size.ChurnPlan)
			return true
		})
		total += d
		if err == nil {
			imp := leg.tracker.Window(leg.net.Now())
			b.note("impact %s bh=%.9f loop=%.9f valley=%.9f ev=%d tr=%d\n", leg.name,
				imp.BlackholeSec, imp.LoopSec, imp.ValleySec, imp.Evals, imp.Transitions)
			err = w.verify(b, leg, st, detections.Value() > det0, evals.Value() > evals0)
		}
		ok = b.attempt(err) && ok
	}
	if ok {
		b.ops = append(b.ops, float64(total)/1e6)
	}
}

// verify checks a quiesced leg against the oracle and guards against a
// leg that silently did nothing.
func (w *churn) verify(b *bench, leg *churnLeg, st sim.Stats, detected, walked bool) error {
	if err := b.checkNet("churn "+leg.name, leg.net, w.sol); err != nil {
		return err
	}
	var vs []invariant.Violation
	b.checkFlowsS += b.check(func() { vs = invariant.CheckFlows(leg.net, w.sol, w.flows) }).Seconds()
	if len(vs) > 0 {
		return fmt.Errorf("churn %s: %d flow violations, e.g. %s", leg.name, len(vs), vs[0])
	}
	switch {
	case !detected:
		return fmt.Errorf("churn %s: liveness detected no failure (every flap absorbed)", leg.name)
	case st.Messages == 0:
		return fmt.Errorf("churn %s: no message was sent", leg.name)
	case !walked:
		return fmt.Errorf("churn %s: the flow tracker never re-walked a flow", leg.name)
	case st.TransportAbandoned != 0:
		return fmt.Errorf("churn %s: transport abandoned %d frames", leg.name, st.TransportAbandoned)
	}
	return nil
}

func (w *churn) finish(*bench) {}

// static: one operation and one round is a pass of the static analysis
// over both measured-like topologies; each stage and each Resolve call
// counts as an attempted operation.
type static struct {
	topos []*staticTopo
	last  []experiments.SolvedTopology // the latest round's solutions, kept live
}

type staticTopo struct {
	name string
	g    *topology.Graph
	base *solver.Solution
}

func (w *static) setup(b *bench) {
	for _, t := range []struct {
		name string
		gen  func(int, int64) (*topology.Graph, error)
	}{{"caida-like", topogen.CAIDALike}, {"hetop-like", topogen.HeTopLike}} {
		g := b.generate(func() (*topology.Graph, error) { return t.gen(size.StaticNodes, size.InputSeed) })
		w.topos = append(w.topos, &staticTopo{name: t.name, g: g, base: b.solve(g, policy.TieOverride)})
	}
}

func (w *static) round(b *bench, r int) {
	t0 := time.Now()
	ex0 := b.excluded.wall
	var solved []experiments.SolvedTopology
	for ti, t := range w.topos {
		g := t.g.Clone()
		sol := b.solve(g, policy.TieOverride)
		b.attempt(b.equal(t.name+" cold solve", sol, t.base))
		edges := g.Edges()
		shuffleEdges(edges, size.InputSeed+int64(ti))
		edges = edges[:min(size.StaticFlips, len(edges))]
		for _, i := range b.order(r, len(edges)) {
			e := edges[i]
			g.RemoveEdge(e.A, e.B)
			b.attempt(w.resolve(b, r, sol, e, "removing"))
			err := g.AddEdge(e.A, e.B, e.Rel)
			if err == nil {
				err = w.resolve(b, r, sol, e, "restoring")
			}
			b.attempt(err)
		}
		b.attempt(b.equal(t.name+" after all flips", sol, t.base))
		solved = append(solved, experiments.SolvedTopology{Name: t.name, Sol: sol})
	}

	ts := time.Now()
	tables, err := experiments.Table4And5From(solved)
	b.table45S += time.Since(ts).Seconds()
	if err == nil && len(tables.Stats) != len(solved) {
		err = errors.New("tables 4-5: a topology is missing")
	}
	if b.attempt(err) {
		for _, s := range tables.Stats {
			b.note("table45 %s n=%d links=%v pl=%v entries=%d\n", s.Name, s.Nodes, s.AvgLinks, s.AvgPermissionLists, s.Entries.Total())
		}
	}
	for _, s := range solved {
		ts = time.Now()
		fig, err := experiments.Figure5(s.Name, s.Sol, size.StaticLinks, size.InputSeed)
		b.figure5S += time.Since(ts).Seconds()
		b.figure5Links += size.StaticLinks
		if err == nil && fig.RootCauseBGP.N() == 0 {
			err = errors.New("figure 5: no link was measured")
		}
		if b.attempt(err) {
			b.note("figure5 %s rc=%v bgp=%v full=%v\n", s.Name, fig.RootCauseCentaur.Mean(),
				fig.RootCauseBGP.Mean(), fig.FullRepairCentaur.Mean())
		}
	}
	w.last = solved
	b.ops = append(b.ops, float64(time.Since(t0)-(b.excluded.wall-ex0))/1e6)
}

// resolve re-solves after one flip; round 0 compares every result with
// a cold solve of the mutated graph.
func (w *static) resolve(b *bench, r int, sol *solver.Solution, e topology.Edge, what string) error {
	t0 := time.Now()
	st, err := sol.Resolve([]solver.Flip{{A: e.A, B: e.B}})
	if err != nil {
		return fmt.Errorf("static: re-solving after %s %v: %w", what, e, err)
	}
	b.resolveMS = append(b.resolveMS, float64(time.Since(t0))/1e6)
	b.resolveDirty = append(b.resolveDirty, float64(st.Dirty))
	b.note("resolve %s %v dirty=%d changed=%d\n", what, e, st.Dirty, st.Changed)
	if r != 0 {
		return nil
	}
	var cold *solver.Solution
	b.check(func() { cold, err = solver.SolveOpts(sol.Topology(), sol.Options()) })
	if err != nil {
		return err
	}
	return b.equal(fmt.Sprintf("static: Resolve after %s %v", what, e), sol, cold)
}

func (b *bench) equal(what string, got, want *solver.Solution) error {
	var eq bool
	b.check(func() { eq = got.Equal(want) })
	if !eq {
		return fmt.Errorf("%s: differs from the cold solve", what)
	}
	return nil
}

func (w *static) finish(*bench) {}
