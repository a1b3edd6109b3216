package experiments

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/centaur"
	"centaur/internal/ospf"
	"centaur/internal/routing"
	"centaur/internal/sim"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/topology"
)

// coldRun runs trials with their fork sources cleared, so every chunk
// cold-starts its own network: the path checkpoint forking must match
// (DESIGN.md invariant 8).
func coldRun(trials []trial, workers int) error {
	for i := range trials {
		trials[i].fork = nil
	}
	return runTrials(trials, workers)
}

// runFlipsCold is RunFlips down the cold path.
func runFlipsCold(cfg FlipConfig) ([]FlipSample, error) {
	out := make([]FlipSample, len(flipEdges(cfg)))
	return out, coldRun(flipTrials(cfg, "", out), cfg.workers)
}

// TestRunFlipsCheckpointMatchesColdStart is the harness-level statement
// of the checkpoint soundness argument (sim/checkpoint.go): for every
// protocol the figures run, the per-flip samples measured on forks of
// one shared checkpoint are identical to those measured on per-chunk
// cold starts. The checkpointed run uses several workers, so under
// -race this also gates the concurrent-forks-from-one-template path.
func TestRunFlipsCheckpointMatchesColdStart(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	builders := map[string]sim.Builder{
		"centaur":  centaur.New(centaur.Config{Policy: hashedPolicy}),
		"bgp":      bgp.New(bgp.Config{Policy: hashedPolicy}),
		"bgp-mrai": bgp.New(bgp.Config{Policy: hashedPolicy, MRAI: 30 * 1e9}),
		"bgp-rcn":  bgp.New(bgp.Config{Policy: hashedPolicy, RCN: true}),
		"ospf":     ospf.New(),
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			base := FlipConfig{
				Topology: g, Build: build, Flips: 8, Seed: 5,
				TrialsPerNetwork: 2,
			}
			cold := base
			cold.workers = 1
			want, err := runFlipsCold(cold)
			if err != nil {
				t.Fatal(err)
			}
			forked := base
			forked.workers = 4
			got, err := RunFlips(forked)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("checkpointed samples differ from cold-start samples")
			}
		})
	}
}

// TestCheckpointTelemetryCounters pins the accounting contract: a
// checkpointed series cold-starts once and forks once per chunk; a
// series run cold cold-starts once per chunk and never forks.
func TestCheckpointTelemetryCounters(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := FlipConfig{
		Topology: g, Build: bgp.New(bgp.Config{}), Flips: 8, Seed: 5,
		TrialsPerNetwork: 2, workers: 2,
	}

	reg := telemetry.New()
	cfg := base
	cfg.Telemetry = reg
	if _, err := RunFlips(cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.checkpoints").Value(); got != 1 {
		t.Errorf("sim.checkpoints = %d, want 1", got)
	}
	if got := reg.Counter("sim.coldstarts").Value(); got != 1 {
		t.Errorf("sim.coldstarts = %d, want 1", got)
	}
	if got := reg.Counter("sim.forks").Value(); got != 4 {
		t.Errorf("sim.forks = %d, want 4 (8 flips / 2 per chunk)", got)
	}
	if reg.Snapshot().Gauges["sim.checkpoint_bytes"] <= 0 {
		t.Error("sim.checkpoint_bytes gauge never raised")
	}

	reg = telemetry.New()
	cfg = base
	cfg.Telemetry = reg
	if _, err := runFlipsCold(cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.checkpoints").Value(); got != 0 {
		t.Errorf("cold: sim.checkpoints = %d, want 0", got)
	}
	if got := reg.Counter("sim.coldstarts").Value(); got != 4 {
		t.Errorf("cold: sim.coldstarts = %d, want 4", got)
	}
	if got := reg.Counter("sim.forks").Value(); got != 0 {
		t.Errorf("cold: sim.forks = %d, want 0", got)
	}
}

// TestTraceDisablesCheckpointing pins the tracing contract: a traced
// run keeps the per-chunk cold starts (each chunk's trace must contain
// its own cold-start events), so its trace bytes are identical to the
// cold path's — and identical across workers, which
// TestTraceWorkerCountInvariance already covers.
func TestTraceDisablesCheckpointing(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(flips func(FlipConfig) ([]FlipSample, error), workers int) ([]byte, *telemetry.Registry) {
		tc := telemetry.NewTraceCollector()
		reg := telemetry.New()
		_, err := flips(FlipConfig{
			Topology: g, Build: bgp.New(bgp.Config{}), Flips: 8, Seed: 5,
			TrialsPerNetwork: 2, workers: workers,
			Series: "test.bgp", Telemetry: reg, Trace: tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tc.Bytes(), reg
	}
	checkpointed, reg := run(RunFlips, 4)
	cold, _ := run(runFlipsCold, 1)
	if len(checkpointed) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(checkpointed, cold) {
		t.Error("traced run with checkpointing requested differs from cold-start trace")
	}
	if got := reg.Counter("sim.forks").Value(); got != 0 {
		t.Errorf("traced run forked %d times, want 0 (tracing implies cold starts)", got)
	}
}

// noSnap hides a protocol's Snapshotter implementation, modeling a
// protocol the checkpoint layer does not support.
type noSnap struct{ p sim.Protocol }

func (w *noSnap) Start(env sim.Env)                           { w.p.Start(env) }
func (w *noSnap) Handle(from routing.NodeID, msg sim.Message) { w.p.Handle(from, msg) }
func (w *noSnap) LinkDown(n routing.NodeID)                   { w.p.LinkDown(n) }
func (w *noSnap) LinkUp(n routing.NodeID)                     { w.p.LinkUp(n) }

// TestCheckpointFallbackNotSnapshottable pins the graceful-degradation
// contract: a protocol without Snapshotter support keeps the historical
// per-chunk cold starts (same samples), rather than failing the run.
func TestCheckpointFallbackNotSnapshottable(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain := bgp.New(bgp.Config{})
	wrapped := func(env sim.Env) sim.Protocol { return &noSnap{p: plain(env)} }
	base := FlipConfig{
		Topology: g, Build: wrapped, Flips: 8, Seed: 5,
		TrialsPerNetwork: 2,
	}
	cold := base
	cold.workers = 1
	want, err := runFlipsCold(cold)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	forked := base
	forked.workers = 4
	forked.Telemetry = reg
	got, err := RunFlips(forked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("fallback samples differ from cold-start samples")
	}
	if got := reg.Counter("sim.forks").Value(); got != 0 {
		t.Errorf("sim.forks = %d, want 0 for a non-snapshottable protocol", got)
	}
	// The template cold start plus one per chunk after the fallback.
	if got := reg.Counter("sim.coldstarts").Value(); got != 5 {
		t.Errorf("sim.coldstarts = %d, want 5", got)
	}
}

// TestCheckpointSpeedGate is the checkpoint layer's speed gate: Figure 6
// at 150 nodes, 30 flips and two trials per network prints the same
// figure when every chunk cold-starts as when the chunks fork their
// series' checkpoint, and the cold run is at least 1.3 times slower (a
// conservative bound that keeps shared-runner jitter from flaking). A
// wall-clock gate needs a quiet machine, so it runs only when
// CHECKPOINT_SPEED_GATE=1 (CI sets it in a dedicated step).
func TestCheckpointSpeedGate(t *testing.T) {
	if os.Getenv("CHECKPOINT_SPEED_GATE") != "1" {
		t.Skip("set CHECKPOINT_SPEED_GATE=1 to run the checkpoint speed gate")
	}
	s := Scenario{Nodes: 150, LinksPerNode: 2, Flips: 30, Seed: 1, MRAI: 30 * time.Second, TrialsPerNetwork: 2}
	t0 := time.Now()
	forked, err := Figure6(s)
	if err != nil {
		t.Fatal(err)
	}
	t1 := time.Now()
	cold, err := figure6(s, coldRun)
	if err != nil {
		t.Fatal(err)
	}
	cp, cs := t1.Sub(t0), time.Since(t1)
	t.Logf("checkpointed: %v, cold-start: %v", cp, cs)
	if forked.String() != cold.String() {
		t.Errorf("checkpointed figure differs from the cold-start one:\n%s\n%s", forked, cold)
	}
	if cs*10 < cp*13 {
		t.Errorf("cold-start run (%v) not at least 1.3x the checkpointed run (%v)", cs, cp)
	}
}

// TestFlipEdgesDoesNotPerturbTopology is the regression test for the
// flip-schedule shuffle: sampling a schedule must never reorder the
// topology's own edge state, which every series of a figure shares.
func TestFlipEdgesDoesNotPerturbTopology(t *testing.T) {
	g, err := topogen.BRITE(40, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]topology.Edge(nil), g.Edges()...)
	sampled := flipEdges(FlipConfig{Topology: g, Flips: 5, Seed: 9})
	if len(sampled) != 5 {
		t.Fatalf("sampled %d edges, want 5", len(sampled))
	}
	if !reflect.DeepEqual(g.Edges(), before) {
		t.Fatal("flipEdges reordered the topology's edge list")
	}
	// Same config, same schedule: the sample must be a pure function of
	// (topology, flips, seed).
	again := flipEdges(FlipConfig{Topology: g, Flips: 5, Seed: 9})
	if !reflect.DeepEqual(sampled, again) {
		t.Fatal("flipEdges is not deterministic for a fixed seed")
	}
}
