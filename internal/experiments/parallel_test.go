package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"centaur/internal/bgp"
	"centaur/internal/telemetry"
	"centaur/internal/topogen"
	"centaur/internal/trace"
)

func TestParallelEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var sum atomic.Int64
		if err := parallelEach(100, workers, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sum.Load(); got != 4950 {
			t.Errorf("workers=%d: sum = %d, want 4950", workers, got)
		}
	}
	if err := parallelEach(0, 4, func(i int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: err = %v, want nil", err)
	}
}

// TestParallelEachReturnsLowestIndexError pins the error contract: the
// surfaced error is the one a serial loop would have hit first.
func TestParallelEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 8} {
		err := parallelEach(50, workers, func(i int) error {
			if i%7 == 3 {
				return fmt.Errorf("task %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 3" {
			t.Errorf("workers=%d: err = %v, want task 3", workers, err)
		}
	}
}

// TestRunFlipsWorkerCountInvariance checks the headline determinism
// guarantee: with a fixed seed and chunking, the measured samples are
// byte-identical for every worker count.
func TestRunFlipsWorkerCountInvariance(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := FlipConfig{
		Topology: g, Build: bgp.New(bgp.Config{}), Flips: 8, Seed: 5,
		TrialsPerNetwork: 2,
	}
	serial := base
	serial.workers = 1
	want, err := RunFlips(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, runtime.GOMAXPROCS(0) + 3} {
		cfg := base
		cfg.workers = workers
		got, err := RunFlips(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: samples differ from serial run", workers)
		}
	}
}

// TestFigure6WorkerCountInvariance checks that the full figure pipeline
// (protocol × trial-chunk fan-out, aggregation into distributions)
// yields identical results serial and parallel.
func TestFigure6WorkerCountInvariance(t *testing.T) {
	cfg := Scenario{
		Nodes: 60, LinksPerNode: 2, Flips: 6, Seed: 9, MRAI: 30 * time.Second,
		TrialsPerNetwork: 2,
	}
	serial := cfg
	serial.Workers = 1
	want, err := Figure6(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := cfg
	parallel.Workers = runtime.GOMAXPROCS(0) + 2
	got, err := Figure6(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Figure6 results differ between serial and parallel runs")
	}
	if got.String() != want.String() {
		t.Error("Figure6 rendered output differs between serial and parallel runs")
	}
}

// TestFigure7WorkerCountInvariance mirrors the Figure 6 check for the
// load-comparison pipeline, in the default shared-network mode where
// the fan-out dimension is the protocol alone.
func TestFigure7WorkerCountInvariance(t *testing.T) {
	cfg := Scenario{Nodes: 60, LinksPerNode: 2, Flips: 6, Seed: 9}
	serial := cfg
	serial.Workers = 1
	want, err := Figure7(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := cfg
	parallel.Workers = runtime.GOMAXPROCS(0) + 2
	got, err := Figure7(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Figure7 results differ between serial and parallel runs")
	}
}

// TestRunFlipsChunkedSeedRule pins the per-chunk seeding rule: chunk
// delay seeds are Seed + the chunk's first trial index, so a chunked
// run equals manually running each chunk on its own fresh network.
func TestRunFlipsChunkedSeedRule(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	build := bgp.New(bgp.Config{})
	chunked, err := RunFlips(FlipConfig{
		Topology: g, Build: build, Flips: 6, Seed: 5,
		TrialsPerNetwork: 2, workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := flipEdges(FlipConfig{Topology: g, Flips: 6, Seed: 5})
	for start := 0; start < len(edges); start += 2 {
		end := min(start+2, len(edges))
		out := make([]FlipSample, end-start)
		tr := trial{
			topo: g, build: build, delaySeed: 5 + int64(start), warm: true,
			body: flipBody(edges[start:end], out, nil),
		}
		if err := tr.run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, chunked[start:end]) {
			t.Errorf("chunk starting at %d differs from RunFlips result", start)
		}
	}
}

// TestTraceWorkerCountInvariance pins the trace determinism guarantee
// the -trace flag relies on: with a fixed seed and chunking, same-seed
// runs at different worker counts emit byte-identical JSONL traces, and
// the telemetry snapshots they fold are equal.
func TestTraceWorkerCountInvariance(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (*trace.Collector, *telemetry.Registry) {
		tc := trace.NewCollector()
		reg := telemetry.New()
		_, err := RunFlips(FlipConfig{
			Topology: g, Build: bgp.New(bgp.Config{}), Flips: 8, Seed: 5,
			TrialsPerNetwork: 2, workers: workers,
			Series: "test.bgp", Telemetry: reg, Trace: tc,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tc, reg
	}
	tc1, reg1 := run(1)
	tc8, reg8 := run(8)

	b1, b8 := tc1.Bytes(), tc8.Bytes()
	if len(b1) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("traces differ between workers=1 and workers=8")
	}
	if _, err := trace.Validate(bytes.NewReader(b1)); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}

	s1, err := json.Marshal(reg1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s8, err := json.Marshal(reg8.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1, s8) {
		t.Fatalf("telemetry snapshots differ:\n%s\n%s", s1, s8)
	}
	if reg1.Counter("test.bgp.msgs.bgp.update").Value() == 0 {
		t.Fatal("per-series per-kind message counter never incremented")
	}
	if reg1.Distribution("test.bgp.conv_down_ms").N() == 0 ||
		reg1.Distribution("test.bgp.dest_conv_ms").N() == 0 {
		t.Fatal("convergence distributions never observed")
	}
}

// TestProvenanceTraceWorkerCountInvariance extends the trace
// determinism guarantee to schema v2: span assignment is per-network
// and chunks are created serially, so provenance-annotated traces are
// byte-identical across worker counts, pass the extended validation,
// and reconstruct the same causal trees.
func TestProvenanceTraceWorkerCountInvariance(t *testing.T) {
	g, err := topogen.BRITE(60, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *trace.Collector {
		tc := trace.NewCollectorV2()
		_, err := RunFlips(FlipConfig{
			Topology: g, Build: bgp.New(bgp.Config{}), Flips: 8, Seed: 5,
			TrialsPerNetwork: 2, workers: workers,
			Series: "test.bgp", Trace: tc,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tc
	}
	b1, b8 := run(1).Bytes(), run(8).Bytes()
	if len(b1) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(b1, b8) {
		t.Fatal("provenance traces differ between workers=1 and workers=8")
	}
	sum, err := trace.Validate(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("provenance trace does not validate: %v", err)
	}
	if sum.ProvenanceChunks != sum.Chunks || sum.Chunks == 0 {
		t.Fatalf("want every chunk schema v2: %+v", sum)
	}
	rep, err := trace.Explain(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("explain failed: %v", err)
	}
	// Every chunk flips links down and up: two roots per trial, and the
	// fail phase must reconvergence through at least one message hop.
	deepRoots := 0
	for _, c := range rep.Chunks {
		if len(c.Roots) == 0 {
			t.Fatalf("chunk %q has no root events", c.Label)
		}
		for _, rt := range c.Roots {
			if rt.Critical.Depth > 0 {
				deepRoots++
				if len(rt.Critical.Hops) == 0 {
					t.Fatalf("deep critical path without hops: %+v", rt.Critical)
				}
			}
		}
	}
	if deepRoots == 0 {
		t.Fatal("no root event produced a critical path through the network")
	}
}
