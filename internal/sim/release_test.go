package sim

import (
	"reflect"
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// floodNode loads the queue the way a routing protocol does: at Start
// every node announces to all its neighbours at once, while a link
// transition makes only the link's two endpoints announce, a millisecond
// later (through a timer). Each announcement is re-flooded floodHops
// more times.
type floodNode struct{ env Env }

const floodHops = 2

func (f *floodNode) Start(env Env) {
	f.env = env
	f.announce(floodHops)
}

func (f *floodNode) announce(hops int) {
	for _, nb := range f.env.Neighbors() {
		f.env.Send(nb.ID, pingMsg{hops: hops})
	}
}

func (f *floodNode) Handle(_ routing.NodeID, msg Message) {
	if hops := msg.(pingMsg).hops; hops > 0 {
		f.announce(hops - 1)
	}
}

func (f *floodNode) LinkDown(routing.NodeID) { f.reannounce() }
func (f *floodNode) LinkUp(routing.NodeID)   { f.reannounce() }

func (f *floodNode) reannounce() {
	f.env.After(time.Millisecond, func() { f.announce(floodHops) })
}

func (f *floodNode) ForkProtocol(env Env) Protocol { return &floodNode{env: env} }
func (f *floodNode) SnapshotBytes() int            { return 0 }

func floodNetwork(t *testing.T) (*Network, *topology.Graph) {
	t.Helper()
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(Config{
		Topology:  g,
		Build:     func(Env) Protocol { return &floodNode{} },
		DelaySeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

func runQuiet(t *testing.T, net *Network) {
	t.Helper()
	if _, ok := net.Run(1_000_000); !ok {
		t.Fatal("run did not quiesce")
	}
}

// TestColdStartReleasesQueue pins the queue's storage: the cold start's
// peak is given back when it quiesces, and a sweep of flips afterwards
// keeps only what its own largest peak needed.
func TestColdStartReleasesQueue(t *testing.T) {
	net, g := floodNetwork(t)
	peak := 0
	net.Observe(func(TraceEvent) { peak = max(peak, net.pq.queued) })
	runQuiet(t, net)
	coldPeak := peak
	if c := cap(net.pq.slots); c != 0 {
		t.Fatalf("the quiesced cold start keeps %d queue slots, want none", c)
	}
	flipPeak := 0
	for _, e := range g.Edges() {
		for _, step := range []func(a, b routing.NodeID) bool{net.FailLink, net.RestoreLink} {
			peak = 0
			if !step(e.A, e.B) {
				t.Fatalf("link %v-%v was not in the expected state", e.A, e.B)
			}
			runQuiet(t, net)
			flipPeak = max(flipPeak, peak)
		}
	}
	if 4*flipPeak > coldPeak {
		t.Fatalf("flips peak at %d events in flight, the cold start at %d: the workload does not tell them apart",
			flipPeak, coldPeak)
	}
	if c := cap(net.pq.slots); c == 0 || c > 2*flipPeak {
		t.Fatalf("after the flips the queue keeps %d slots, want 1..%d (twice the largest flip peak)", c, 2*flipPeak)
	}
}

// TestQueueReleasedOnlyOnce pins which drains release: only the first
// drain of a network NewNetwork built, however many runs its cold start
// takes. Forks and restarted nodes never make a network cold again.
func TestQueueReleasedOnlyOnce(t *testing.T) {
	t.Run("interrupted", func(t *testing.T) {
		net, _ := floodNetwork(t)
		if _, ok := net.Run(100); ok {
			t.Fatal("100 events quiesced the cold start")
		}
		if cap(net.pq.slots) == 0 {
			t.Fatal("a cold start cut short by maxEvents released its queue")
		}
		runQuiet(t, net)
		if c := cap(net.pq.slots); c != 0 {
			t.Fatalf("the cold start drained in its second run keeps %d slots, want none", c)
		}
	})
	t.Run("restart", func(t *testing.T) {
		net, _ := floodNetwork(t)
		runQuiet(t, net)
		if !net.CrashNode(1) {
			t.Fatal("node 1 did not crash")
		}
		runQuiet(t, net)
		if cap(net.pq.slots) == 0 {
			t.Fatal("a drain after the cold start released the queue")
		}
		if !net.RestartNode(1) {
			t.Fatal("node 1 did not restart")
		}
		runQuiet(t, net)
		if cap(net.pq.slots) == 0 {
			t.Fatal("a restarted node's start made the network cold again")
		}
	})
	t.Run("fork", func(t *testing.T) {
		tmpl, g := floodNetwork(t)
		runQuiet(t, tmpl)
		cp, err := tmpl.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		fork, err := cp.Fork(4)
		if err != nil {
			t.Fatal(err)
		}
		if c := cap(tmpl.pq.slots); c != 0 {
			t.Fatalf("the checkpoint template keeps %d queue slots, want none", c)
		}
		e := g.Edges()[0]
		fork.FailLink(e.A, e.B)
		runQuiet(t, fork)
		if cap(fork.pq.slots) == 0 {
			t.Fatal("a fork's first drain released its queue")
		}
	})
}

// TestReleaseChangesNothing runs one network, which releases its queue
// after the cold start, next to an identical one that keeps it: every
// later phase must produce the same event stream and the same stats.
func TestReleaseChangesNothing(t *testing.T) {
	run := func(release bool) ([]TraceEvent, Stats) {
		net, g := floodNetwork(t)
		net.cold = release
		var events []TraceEvent
		net.Observe(func(ev TraceEvent) { events = append(events, ev) })
		runQuiet(t, net)
		if kept := cap(net.pq.slots) > 0; kept == release {
			t.Fatalf("release=%v: the cold start keeps %d queue slots", release, cap(net.pq.slots))
		}
		for _, e := range g.Edges()[:10] {
			net.FailLink(e.A, e.B)
			runQuiet(t, net)
			net.RestoreLink(e.A, e.B)
			runQuiet(t, net)
		}
		net.CrashNode(2)
		runQuiet(t, net)
		net.RestartNode(2)
		runQuiet(t, net)
		return events, net.Stats()
	}
	releasedEvents, releasedStats := run(true)
	keptEvents, keptStats := run(false)
	if !reflect.DeepEqual(releasedStats, keptStats) {
		t.Fatalf("stats differ:\nreleased: %+v\nkept:     %+v", releasedStats, keptStats)
	}
	if !reflect.DeepEqual(releasedEvents, keptEvents) {
		t.Fatalf("event streams differ (%d vs %d events)", len(releasedEvents), len(keptEvents))
	}
}
