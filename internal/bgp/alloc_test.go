package bgp

import (
	"testing"

	"centaur/internal/prototest"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/topology"
)

// hub returns a started node 1 with customers 2..k+1 on a stub env.
func hub(k int) (*Node, *prototest.StubEnv) {
	env := prototest.Hub(k, topology.RelCustomer)
	n := New(Config{})(env).(*Node)
	n.Start(env)
	return n, env
}

// TestNoChangeHandleAllocatesNothing pins the cost of an announcement
// that repeats the standing one: the path is stored as received and the
// decision runs on reused scratch, without a single allocation.
func TestNoChangeHandleAllocatesNothing(t *testing.T) {
	n, env := hub(8)
	var msg sim.Message = Update{Dest: 100, Path: routing.Path{2, 100}}
	n.Handle(2, msg)
	env.Sends = 0
	if allocs := testing.AllocsPerRun(50, func() { n.Handle(2, msg) }); allocs != 0 {
		t.Fatalf("a duplicate announcement allocated %v times, want 0", allocs)
	}
	if env.Sends != 0 {
		t.Fatalf("a duplicate announcement sent %d updates", env.Sends)
	}
}

// TestFanOutBoxesOneMessage pins the once-boxed message rule: a changed
// decision advertised to seven neighbors allocates the installed path
// and one sim.Message, not a message per neighbor.
func TestFanOutBoxesOneMessage(t *testing.T) {
	n, env := hub(8)
	msgs := [2]sim.Message{
		Update{Dest: 100, Path: routing.Path{2, 100}},
		Update{Dest: 100, Path: routing.Path{2, 50, 100}},
	}
	n.Handle(2, msgs[0]) // grows the row's RIB lists
	env.Sends = 0
	turn := 0
	allocs := testing.AllocsPerRun(50, func() {
		turn++
		n.Handle(2, msgs[turn%2]) // the route changes every time
	})
	if want := 51 * 7; env.Sends != want { // all but the neighbor on the path
		t.Fatalf("%d updates sent, want %d", env.Sends, want)
	}
	if allocs != 2 {
		t.Fatalf("a decision advertised to 7 neighbors allocated %v times, want 2 (the path and one message)", allocs)
	}
}

// TestSparseIDsAllocateLikeDense pins that a node's tables are sized by
// the node count: a network whose IDs reach 4,200,000,000 allocates what
// its dense relabelling {1,2,3,4} does.
func TestSparseIDsAllocateLikeDense(t *testing.T) {
	prototest.SparseAllocatesLikeDense(t, New(Config{}))
}
