package faults

import (
	"testing"
	"time"

	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// chatMsg carries a hop budget.
type chatMsg struct{ hops int }

func (chatMsg) Kind() string { return "test.chat" }
func (chatMsg) Units() int   { return 1 }

// chatter floods its neighbors on start and echoes with a decreasing
// hop budget — enough traffic for per-message faults to bite, but
// always quiescing.
type chatter struct{ env sim.Env }

func (c *chatter) Start(env sim.Env) {
	c.env = env
	for _, nb := range env.Neighbors() {
		env.Send(nb.ID, chatMsg{hops: 3})
	}
}

func (c *chatter) Handle(from routing.NodeID, msg sim.Message) {
	m, ok := msg.(chatMsg)
	if !ok || m.hops <= 0 {
		return
	}
	for _, nb := range c.env.Neighbors() {
		if c.env.LinkIsUp(nb.ID) {
			c.env.Send(nb.ID, chatMsg{hops: m.hops - 1})
		}
	}
}

func (c *chatter) LinkDown(routing.NodeID) {}
func (c *chatter) LinkUp(routing.NodeID)   {}

func buildChatter(t *testing.T, g *topology.Graph) *sim.Network {
	t.Helper()
	net, err := sim.NewNetwork(sim.Config{
		Topology:  g,
		Build:     func(env sim.Env) sim.Protocol { return &chatter{} },
		DelaySeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPlanActive(t *testing.T) {
	if (Plan{}).Active() {
		t.Fatal("zero plan must be inactive")
	}
	for _, p := range []Plan{
		{Loss: 0.1}, {Dup: 0.1}, {Jitter: time.Millisecond},
		{Churn: 1}, {Crashes: 1}, {Partition: true},
	} {
		if !p.Active() {
			t.Fatalf("plan %+v must be active", p)
		}
	}
}

// verifyAllUp asserts every node is up and every link restored — the
// post-quiescence guarantee the invariant checks rely on. RestoreLink
// returns false on an up link, so a true return means it found (and
// re-upped) a link some fault left down.
func verifyAllUp(t *testing.T, net *sim.Network, g *topology.Graph) {
	t.Helper()
	for _, id := range g.Nodes() {
		if !net.NodeIsUp(id) {
			t.Fatalf("node %v still down at quiescence", id)
		}
	}
	for _, e := range g.Edges() {
		if net.RestoreLink(e.A, e.B) {
			t.Fatalf("link %v still down at quiescence", e)
		}
	}
}

func TestAttachMessageFaults(t *testing.T) {
	g, err := topogen.BRITE(20, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	net := buildChatter(t, g)
	Attach(net, Plan{Seed: 1, Loss: 0.2, Dup: 0.1, Jitter: 2 * time.Millisecond}, reg)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	losses := reg.Counter("faults.loss_injected").Value()
	dups := reg.Counter("faults.dup_injected").Value()
	jitters := reg.Counter("faults.jitter_injected").Value()
	if losses == 0 || dups == 0 || jitters == 0 {
		t.Fatalf("faults not injected: losses=%d dups=%d jitters=%d", losses, dups, jitters)
	}
	st := net.Stats()
	if st.FaultDrops != losses {
		t.Fatalf("sim dropped %d by fault, injector decided %d", st.FaultDrops, losses)
	}
	if st.FaultDups != dups {
		t.Fatalf("sim duplicated %d, injector decided %d", st.FaultDups, dups)
	}
}

func TestAttachFlapStormAndCrashes(t *testing.T) {
	g, err := topogen.BRITE(20, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	net := buildChatter(t, g)
	plan := Plan{Seed: 9, Churn: 20, Window: 500 * time.Millisecond, Crashes: 3}
	Attach(net, plan, reg)
	if _, _, err := net.RunToConvergence(5_000_000); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("faults.flaps").Value() == 0 {
		t.Fatal("no link flaps injected")
	}
	crashes, restarts := reg.Counter("faults.crashes").Value(), reg.Counter("faults.restarts").Value()
	if crashes == 0 || crashes != restarts {
		t.Fatalf("crashes=%d restarts=%d; every crash must restart", crashes, restarts)
	}
	verifyAllUp(t, net, g)
}

func TestAttachPartitionBisectsAndHeals(t *testing.T) {
	g, err := topogen.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	net := buildChatter(t, g)
	Attach(net, Plan{Seed: 4, Partition: true, Window: 200 * time.Millisecond}, reg)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	// Chain 1-2-3-4 bisected into {1,2} | {3,4}: exactly the 2—3 link.
	if got := reg.Counter("faults.partition_cuts").Value(); got != 1 {
		t.Fatalf("faults.partition_cuts = %d, want 1", got)
	}
	verifyAllUp(t, net, g)
}

func TestFaultSequenceIsDeterministic(t *testing.T) {
	g, err := topogen.BRITE(25, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Seed: 42, Loss: 0.15, Dup: 0.05, Jitter: time.Millisecond, Churn: 10, Crashes: 2, Window: 400 * time.Millisecond}
	type result struct {
		losses, dups, jitters, flaps, crashes int64
		events                                int64
		msgs                                  int64
	}
	run := func() result {
		net := buildChatter(t, g)
		reg := telemetry.New()
		Attach(net, plan, reg)
		if _, _, err := net.RunToConvergence(5_000_000); err != nil {
			t.Fatal(err)
		}
		st := net.Stats()
		count := func(name string) int64 { return reg.Counter("faults." + name).Value() }
		return result{count("loss_injected"), count("dup_injected"), count("jitter_injected"),
			count("flaps"), count("crashes"), st.Events, st.Messages}
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same plan diverged:\n%+v\n%+v", a, b)
	}
	// A different seed must give a different fault sequence (over this
	// much traffic, identical counts would mean the seed is ignored).
	plan.Seed = 43
	if c := run(); c == a {
		t.Fatalf("seed change produced identical run: %+v", c)
	}
}

func TestNilRegistryIsAccepted(t *testing.T) {
	g, err := topogen.Chain(3)
	if err != nil {
		t.Fatal(err)
	}
	net := buildChatter(t, g)
	Attach(net, Plan{Seed: 1, Loss: 0.5}, nil)
	if _, _, err := net.RunToConvergence(1_000_000); err != nil {
		t.Fatal(err)
	}
	if net.Stats().FaultDrops == 0 {
		t.Fatal("faults must still inject without a registry")
	}
}
