package ospf

import (
	"testing"

	"centaur/internal/prototest"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// hub returns a started node 1 with neighbors 2..k+1 on a stub env.
func hub(k int) (*Node, *prototest.StubEnv) {
	env := prototest.Hub(k, topology.RelPeer)
	n := New()(env).(*Node)
	n.Start(env)
	return n, env
}

// TestNoChangeHandleAllocatesNothing pins the cost of a stale LSA:
// flooding stops at the sequence check, without a single allocation.
func TestNoChangeHandleAllocatesNothing(t *testing.T) {
	n, env := hub(8)
	var msg sim.Message = Flood{LSA: LSA{Origin: 100, Seq: 5, Neighbors: []routing.NodeID{2}}}
	n.Handle(2, msg)
	env.Sends = 0
	if allocs := testing.AllocsPerRun(50, func() { n.Handle(2, msg) }); allocs != 0 {
		t.Fatalf("a stale LSA allocated %v times, want 0", allocs)
	}
	if env.Sends != 0 {
		t.Fatalf("a stale LSA was flooded %d times", env.Sends)
	}
}

// TestFanOutBoxesOneMessage pins the once-boxed message rule: a newer
// LSA is re-flooded to seven neighbors as the message it arrived in
// (no allocation at all), and an origination allocates its neighbor
// list and one sim.Message, not a message per neighbor.
func TestFanOutBoxesOneMessage(t *testing.T) {
	n, env := hub(8)
	msgs := make([]sim.Message, 52)
	for i := range msgs {
		msgs[i] = Flood{LSA: LSA{Origin: 100, Seq: uint64(i + 1), Neighbors: []routing.NodeID{2}}}
	}
	n.Handle(2, msgs[0]) // installs origin 100's first LSA
	env.Sends = 0
	turn := 0
	allocs := testing.AllocsPerRun(50, func() {
		turn++
		n.Handle(2, msgs[turn]) // newer every time
	})
	if want := 51 * 7; env.Sends != want { // all but the neighbor it came from
		t.Fatalf("%d floods sent, want %d", env.Sends, want)
	}
	if allocs != 0 {
		t.Fatalf("re-flooding to 7 neighbors allocated %v times, want 0", allocs)
	}
	env.Sends = 0
	allocs = testing.AllocsPerRun(50, func() { n.LinkDown(2) })
	if want := 51 * 8; env.Sends != want {
		t.Fatalf("%d floods sent, want %d", env.Sends, want)
	}
	if allocs != 2 {
		t.Fatalf("an origination flooded to 8 neighbors allocated %v times, want 2 (the neighbor list and one message)", allocs)
	}
}

// TestSparseIDsAllocateLikeDense pins that a node's tables are sized by
// the node count: a network whose IDs reach 4,200,000,000 allocates what
// its dense relabelling {1,2,3,4} does.
func TestSparseIDsAllocateLikeDense(t *testing.T) {
	prototest.SparseAllocatesLikeDense(t, New())
}
