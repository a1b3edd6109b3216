package sim_test

import (
	"reflect"
	"runtime"
	"testing"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
	"centaur/internal/topology"
	"centaur/internal/wire"
)

// counted is a sizable message that counts how often it is sized. It has
// two fields so that each conversion to sim.Message boxes a fresh copy
// (a one-pointer struct would be its own data word).
type counted struct {
	calls *int
	bytes int
}

func (counted) Kind() string { return "test.counted" }
func (counted) Units() int   { return 3 }
func (c counted) WireBytes() int {
	*c.calls++
	return c.bytes
}

// silent is a protocol that only keeps its Env.
type silent struct{ env sim.Env }

func (s *silent) Start(env sim.Env)                  { s.env = env }
func (s *silent) Handle(routing.NodeID, sim.Message) {}
func (s *silent) LinkDown(routing.NodeID)            {}
func (s *silent) LinkUp(routing.NodeID)              {}

// starHub builds a started network of silent nodes on a star with k
// leaves and returns it with the hub's Env.
func starHub(tb testing.TB, k int) (*sim.Network, sim.Env, *topology.Graph) {
	tb.Helper()
	g, err := topogen.Star(k + 1)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := sim.NewNetwork(sim.Config{
		Topology:  g,
		Build:     func(sim.Env) sim.Protocol { return &silent{} },
		DelaySeed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	net.Run(1 << 20) // the Start events
	return net, net.Node(1).(*silent).env, g
}

// fanOut sends msg() to every up neighbor of the hub in ascending order,
// as the protocols' fan-outs do, and delivers it.
func fanOut(net *sim.Network, hub sim.Env, msg func() sim.Message) {
	for _, nb := range hub.Neighbors() {
		if hub.LinkIsUp(nb.ID) {
			hub.Send(nb.ID, msg())
		}
	}
	net.Run(1 << 20)
}

// TestFanOutSizesOnce pins the kernel's size memo: a box sent to k
// neighbors is sized once and charged k times, exactly as k boxes of
// equal contents, each sized, are charged; and the memo allocates
// nothing.
func TestFanOutSizesOnce(t *testing.T) {
	const k, bytes = 16, 17
	calls := 0
	one := sim.Message(counted{calls: &calls, bytes: bytes})
	shared, hub, _ := starHub(t, k)
	fanOut(shared, hub, func() sim.Message { return one })
	if calls != 1 {
		t.Fatalf("one box to %d neighbors was sized %d times, want 1", k, calls)
	}
	st := shared.Stats()
	kind := one.Kind()
	if st.Messages != k || st.Units != k*3 || st.Bytes != k*bytes ||
		st.MsgsByKind[kind] != k || st.UnitsByKind[kind] != k*3 || st.BytesByKind[kind] != k*bytes {
		t.Fatalf("stats %+v, want %d messages of 3 units and %d bytes", st, k, bytes)
	}

	calls = 0
	boxes, hub2, _ := starHub(t, k)
	fanOut(boxes, hub2, func() sim.Message { return counted{calls: &calls, bytes: bytes} })
	if calls != k {
		t.Fatalf("%d distinct boxes were sized %d times, want %d", k, calls, k)
	}
	if got := boxes.Stats(); !reflect.DeepEqual(got, st) {
		t.Fatalf("distinct boxes charged %+v, one box %+v", got, st)
	}

	// The queue kept its capacity after the first fan-out drained, so a
	// repeat allocates only if the memo does.
	if n := testing.AllocsPerRun(100, func() {
		fanOut(shared, hub, func() sim.Message { return one })
	}); n != 0 {
		t.Fatalf("a fan-out of one box allocated %g times per run, want 0", n)
	}
}

// lsa is a sizable message the shape of an OSPF flood from the hub.
type lsa struct{ l wire.OSPFLSA }

func (lsa) Kind() string     { return "bench.lsa" }
func (lsa) Units() int       { return 1 }
func (m lsa) WireBytes() int { return wire.OSPFLSASize(m.l) }

// BenchmarkSendFanOut measures one neighbor's share of a fan-out: a hub
// of degree 64 sends one boxed LSA naming its neighbors to each of them,
// checking LinkIsUp first as the protocols do, and the kernel delivers
// it. ns/send and B/send cover the send, the pop and the dispatch.
func BenchmarkSendFanOut(b *testing.B) {
	const degree = 64
	net, hub, g := starHub(b, degree)
	var nbs []routing.NodeID
	for _, nb := range g.Neighbors(1) {
		nbs = append(nbs, nb.ID)
	}
	box := sim.Message(lsa{wire.OSPFLSA{Origin: 1, Seq: 1, Neighbors: nbs}})
	msg := func() sim.Message { return box }
	fanOut(net, hub, msg) // grow the queue once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fanOut(net, hub, msg)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	sends := float64(b.N) * degree
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sends, "ns/send")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/sends, "B/send")
}
