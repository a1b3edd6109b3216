package sim_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/ospf"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

const testMaxEvents = 50_000_000

// snapshotBuilders are the protocol configurations whose fork fidelity
// the tests assert — the same set the figures simulate.
func snapshotBuilders() map[string]sim.Builder {
	return map[string]sim.Builder{
		"centaur":  centaur.New(centaur.Config{}),
		"bgp":      bgp.New(bgp.Config{}),
		"bgp-mrai": bgp.New(bgp.Config{MRAI: 30 * time.Second}),
		"bgp-rcn":  bgp.New(bgp.Config{RCN: true}),
		"ospf":     ospf.New(),
	}
}

func testTopo(tb testing.TB, nodes int) *topology.Graph {
	tb.Helper()
	g, err := topogen.BRITE(nodes, 2, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// converged cold-starts a network under delaySeed and runs it to
// quiescence.
func converged(tb testing.TB, g *topology.Graph, build sim.Builder, delaySeed int64) *sim.Network {
	tb.Helper()
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: delaySeed})
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(testMaxEvents); err != nil {
		tb.Fatal(err)
	}
	return net
}

// compareRoutes asserts that every node of a and b holds identical
// converged routing state: full route tables for the path-vector
// protocols (plus Centaur's announced per-neighbor views), next hops
// for OSPF.
func compareRoutes(t *testing.T, g *topology.Graph, a, b *sim.Network) {
	t.Helper()
	for _, id := range g.Nodes() {
		switch an := a.Node(id).(type) {
		case *centaur.Node:
			bn := b.Node(id).(*centaur.Node)
			if !reflect.DeepEqual(an.Routes(), bn.Routes()) {
				t.Fatalf("node %v: centaur route tables differ", id)
			}
			for _, nb := range g.Neighbors(id) {
				av, bv := an.ExportedView(nb.ID), bn.ExportedView(nb.ID)
				if !reflect.DeepEqual(av, bv) {
					t.Fatalf("node %v: announced view toward %v differs", id, nb.ID)
				}
			}
			if an.LocalGraph().String() != bn.LocalGraph().String() {
				t.Fatalf("node %v: local P-graphs differ", id)
			}
		case *bgp.Node:
			bn := b.Node(id).(*bgp.Node)
			for _, dest := range g.Nodes() {
				if ap, bp := an.BestPath(dest), bn.BestPath(dest); !ap.Equal(bp) {
					t.Fatalf("node %v: bgp route toward %v differs: %v vs %v", id, dest, ap, bp)
				}
			}
		case *ospf.Node:
			bn := b.Node(id).(*ospf.Node)
			for _, dest := range g.Nodes() {
				if ah, bh := an.NextHop(dest), bn.NextHop(dest); ah != bh {
					t.Fatalf("node %v: ospf next hop toward %v differs: %v vs %v", id, dest, ah, bh)
				}
			}
		default:
			t.Fatalf("node %v: unexpected protocol %T", id, an)
		}
	}
}

// phaseResult is one reconvergence phase's externally observable
// outcome: message accounting, convergence duration, and the relative
// per-destination route-settle times.
type phaseResult struct {
	units, msgs, bytes int64
	conv               time.Duration
	destTimes          map[routing.NodeID]time.Duration
}

// measureFlip runs one fail/reconverge/restore/reconverge cycle on net,
// exactly as the experiment harness does, reporting both phases in
// flip-relative terms (absolute simulated time cancels out).
func measureFlip(tb testing.TB, net *sim.Network, e topology.Edge) (down, up phaseResult) {
	tb.Helper()
	var err error
	if down, err = measurePhase(net, e, net.FailLink); err != nil {
		tb.Fatal(err)
	}
	if up, err = measurePhase(net, e, net.RestoreLink); err != nil {
		tb.Fatal(err)
	}
	return down, up
}

// measurePhase applies one transition of link e (net.FailLink or
// net.RestoreLink) and reports the reconvergence it causes.
func measurePhase(net *sim.Network, e topology.Edge, transition func(a, b routing.NodeID) bool) (phaseResult, error) {
	net.ResetStats()
	start := net.Now()
	if !transition(e.A, e.B) {
		return phaseResult{}, fmt.Errorf("link %v-%v transition refused", e.A, e.B)
	}
	if _, _, err := net.RunToConvergence(testMaxEvents); err != nil {
		return phaseResult{}, err
	}
	st := net.Stats()
	res := phaseResult{
		units: st.Units, msgs: st.Messages, bytes: st.Bytes,
		destTimes: make(map[routing.NodeID]time.Duration),
	}
	if st.Messages > 0 {
		res.conv = st.LastSend - start
	}
	net.LastRouteChanges(func(dest routing.NodeID, at time.Duration) {
		res.destTimes[dest] = at - start
	})
	return res, nil
}

// TestForkMatchesColdStart is the core soundness statement of the
// checkpoint layer: for every protocol, forking a converged template
// under delay seed S yields a network whose converged routing state AND
// whose subsequent flip measurements are identical to a fresh cold
// start under S — converged state under the Gao–Rexford policies is
// unique and delay-independent, and everything measured afterwards is
// relative to the flip instant.
func TestForkMatchesColdStart(t *testing.T) {
	g := testTopo(t, 48)
	edges := g.Edges()
	flips := []topology.Edge{edges[0], edges[len(edges)/2], edges[len(edges)-1]}
	for name, build := range snapshotBuilders() {
		t.Run(name, func(t *testing.T) {
			tmpl := converged(t, g, build, 1)
			cp, err := tmpl.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := cp.Fork(2)
			if err != nil {
				t.Fatal(err)
			}
			fresh := converged(t, g, build, 2)

			compareRoutes(t, g, fork, fresh)
			for _, e := range flips {
				fd, fu := measureFlip(t, fork, e)
				cd, cu := measureFlip(t, fresh, e)
				if !reflect.DeepEqual(fd, cd) {
					t.Fatalf("flip %v-%v: down phase differs:\nfork:  %+v\nfresh: %+v", e.A, e.B, fd, cd)
				}
				if !reflect.DeepEqual(fu, cu) {
					t.Fatalf("flip %v-%v: up phase differs:\nfork:  %+v\nfresh: %+v", e.A, e.B, fu, cu)
				}
			}
			compareRoutes(t, g, fork, fresh)
		})
	}
}

// TestForkIsolation pins the deep-copy contract: running flips on one
// fork must not leak into the shared template or into sibling forks —
// a fork taken and measured after heavy mutation of another behaves
// exactly like the first, and two forks of a template checkpointed while
// a link is down, restoring it concurrently, behave exactly alike.
func TestForkIsolation(t *testing.T) {
	g := testTopo(t, 48)
	edges := g.Edges()
	flips := []topology.Edge{edges[1], edges[len(edges)/3], edges[len(edges)-2]}
	for name, build := range snapshotBuilders() {
		t.Run(name, func(t *testing.T) {
			tmpl := converged(t, g, build, 1)
			cp, err := tmpl.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			first, err := cp.Fork(3)
			if err != nil {
				t.Fatal(err)
			}
			type flipOutcome struct{ down, up phaseResult }
			var want []flipOutcome
			for _, e := range flips {
				d, u := measureFlip(t, first, e)
				want = append(want, flipOutcome{d, u})
			}
			// A fork taken now — after the first fork mutated everything it
			// shares structurally with the template — must repeat the exact
			// measurements.
			second, err := cp.Fork(3)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range flips {
				d, u := measureFlip(t, second, e)
				if !reflect.DeepEqual(flipOutcome{d, u}, want[i]) {
					t.Fatalf("flip %v-%v: sibling fork diverged from first fork", e.A, e.B)
				}
			}

			// A template checkpointed while a link is down holds what a
			// restart reuses (a Centaur node keeps the ended session's export
			// view and its neighbour graph's storage). Two forks restoring
			// the link at the same time must share none of it: they measure
			// exactly alike, and the race detector sees no shared write.
			down := edges[len(edges)/2]
			tmplDown := converged(t, g, build, 1)
			if _, err := measurePhase(tmplDown, down, tmplDown.FailLink); err != nil {
				t.Fatal(err)
			}
			cpDown, err := tmplDown.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			var got [2][]phaseResult
			var errs [2]error
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = restoreAndFlip(cpDown, down, flips)
				}()
			}
			wg.Wait()
			if err := errors.Join(errs[:]...); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("two forks restoring %v-%v measured differently:\n%+v\n%+v", down.A, down.B, got[0], got[1])
			}
		})
	}
}

// restoreAndFlip forks cp, restores the link that was down in it, flips
// every link of flips, and reports each phase.
func restoreAndFlip(cp *sim.Checkpoint, down topology.Edge, flips []topology.Edge) ([]phaseResult, error) {
	net, err := cp.Fork(3)
	if err != nil {
		return nil, err
	}
	r, err := measurePhase(net, down, net.RestoreLink)
	if err != nil {
		return nil, err
	}
	out := []phaseResult{r}
	for _, e := range flips {
		for _, transition := range []func(a, b routing.NodeID) bool{net.FailLink, net.RestoreLink} {
			if r, err = measurePhase(net, e, transition); err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// TestCheckpointRequiresQuiescence pins the API contract: a network
// with events still queued (here: the Start events of a network never
// run) cannot be checkpointed.
func TestCheckpointRequiresQuiescence(t *testing.T) {
	g := testTopo(t, 12)
	net, err := sim.NewNetwork(sim.Config{Topology: g, Build: ospf.New(), DelaySeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Checkpoint(); err == nil {
		t.Fatal("checkpoint of a non-quiesced network succeeded")
	}
}

// inert is a protocol without Snapshotter support.
type inert struct{}

func (inert) Start(sim.Env)                      {}
func (inert) Handle(routing.NodeID, sim.Message) {}
func (inert) LinkDown(routing.NodeID)            {}
func (inert) LinkUp(routing.NodeID)              {}

// TestCheckpointRequiresSnapshotter pins the error contract callers'
// fallback logic keys on.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	g := testTopo(t, 12)
	net, err := sim.NewNetwork(sim.Config{
		Topology: g, DelaySeed: 1,
		Build: func(sim.Env) sim.Protocol { return inert{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := net.RunToConvergence(testMaxEvents); err != nil {
		t.Fatal(err)
	}
	_, err = net.Checkpoint()
	if !errors.Is(err, sim.ErrNotSnapshottable) {
		t.Fatalf("err = %v, want ErrNotSnapshottable", err)
	}
}

// TestCheckpointStateBytes sanity-checks the snapshot-size estimate the
// sim.checkpoint_bytes gauge reports.
func TestCheckpointStateBytes(t *testing.T) {
	g := testTopo(t, 48)
	net := converged(t, g, centaur.New(centaur.Config{}), 1)
	cp, err := net.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cp.StateBytes() <= 0 {
		t.Fatalf("StateBytes = %d, want > 0", cp.StateBytes())
	}
}

// BenchmarkColdStart measures what a chunk paid before checkpointing:
// full cold-start convergence of a Centaur network.
func BenchmarkColdStart(b *testing.B) {
	g := testTopo(b, 300)
	build := centaur.New(centaur.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := sim.NewNetwork(sim.Config{Topology: g, Build: build, DelaySeed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := net.RunToConvergence(testMaxEvents); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointFork measures what a chunk pays now: one deep fork
// of the shared converged checkpoint.
func BenchmarkCheckpointFork(b *testing.B) {
	g := testTopo(b, 300)
	net := converged(b, g, centaur.New(centaur.Config{}), 0)
	cp, err := net.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cp.Fork(int64(i) + 1); err != nil {
			b.Fatal(err)
		}
	}
}
