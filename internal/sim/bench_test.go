package sim_test

import (
	"runtime"
	"testing"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topogen"
)

// ping is a message that is to be echoed that many more times.
type ping int

func (ping) Kind() string { return "bench.ping" }
func (ping) Units() int   { return 1 }

// echoHops is how often a ping crosses its link before it is dropped.
const echoHops = 16

// pings holds the boxed form of every ping, so the echo protocol
// allocates nothing and the benchmark sees the kernel alone.
var pings = func() (out [echoHops + 1]sim.Message) {
	for i := range out {
		out[i] = ping(i)
	}
	return out
}()

// echo sends back whatever it receives, one hop fewer to go.
type echo struct{ env sim.Env }

func (e *echo) Start(env sim.Env)       { e.env = env }
func (e *echo) LinkDown(routing.NodeID) {}
func (e *echo) LinkUp(routing.NodeID)   {}
func (e *echo) Handle(from routing.NodeID, msg sim.Message) {
	if left := msg.(ping); left > 0 {
		e.env.Send(from, pings[left-1])
	}
}

// BenchmarkRunDeliver measures the kernel with no protocol on top: every
// node pings every neighbor and the pings bounce echoHops times, on the
// baseline workload's topology (CAIDA-like 250 nodes, seed 7), about a
// thousand messages in flight. ns/event and B/event are the kernel's
// cost of one Send plus the pop and dispatch of its delivery.
func BenchmarkRunDeliver(b *testing.B) {
	g, err := topogen.CAIDALike(250, 7)
	if err != nil {
		b.Fatal(err)
	}
	net, err := sim.NewNetwork(sim.Config{
		Topology:  g,
		Build:     func(sim.Env) sim.Protocol { return &echo{} },
		DelaySeed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	net.Run(1 << 30) // the Start events
	nodes := g.Nodes()
	var events int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range nodes {
			e := net.Node(id).(*echo)
			for _, nb := range g.Neighbors(id) {
				e.env.Send(nb.ID, pings[echoHops])
			}
		}
		processed, quiesced := net.Run(1 << 30)
		if !quiesced {
			b.Fatal("the pings did not die out")
		}
		events += processed
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B/event")
}
