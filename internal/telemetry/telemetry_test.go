package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"

	"centaur/internal/metrics"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("sim.msgs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same name answers the same underlying counter.
	if got := r.Counter("sim.msgs").Value(); got != 5 {
		t.Fatalf("re-looked-up counter = %d, want 5", got)
	}

	g := r.Gauge("heap.max")
	g.SetMax(100)
	g.SetMax(50) // lower: ignored
	if got := g.Value(); got != 100 {
		t.Fatalf("gauge = %d, want 100", got)
	}
	g.SetMax(200)
	if got := g.Value(); got != 200 {
		t.Fatalf("gauge = %d, want 200", got)
	}
}

func TestDistributionObserveAndSummary(t *testing.T) {
	r := New()
	d := r.Distribution("conv_ms")
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if d.N() != 100 {
		t.Fatalf("N = %d, want 100", d.N())
	}
	m := d.Dist()
	if m.Min() != 1 || m.Max() != 100 {
		t.Fatalf("min=%g max=%g", m.Min(), m.Max())
	}
	if med := m.Median(); med < 50 || med > 51 {
		t.Fatalf("median = %g", med)
	}
}

func TestConcurrentIncrements(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			d := r.Distribution("d")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(i))
				d.Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != perWorker-1 {
		t.Fatalf("gauge = %d, want %d", got, perWorker-1)
	}
	if got := r.Distribution("d").N(); got != workers*perWorker {
		t.Fatalf("dist N = %d, want %d", got, workers*perWorker)
	}
}

// TestNoopZeroAlloc pins the zero-cost-when-disabled guarantee: every
// operation on a nil registry's handles allocates nothing.
func TestNoopZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	d := r.Distribution("x")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.SetMax(2)
		d.Observe(1.5)
	}); n != 0 {
		t.Fatalf("no-op handles allocated %g times per run, want 0", n)
	}
	if r.Enabled() {
		t.Fatal("nil registry must report disabled")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

// TestEnabledHotPathAllocs pins that recording into live counters and
// gauges also allocates nothing (distributions amortize buffer growth,
// so they are excluded).
func TestEnabledHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("x")
	g := r.Gauge("x")
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.SetMax(7)
	}); n != 0 {
		t.Fatalf("enabled counter/gauge allocated %g times per run, want 0", n)
	}
}

func TestSnapshotOmitsEmptyDists(t *testing.T) {
	r := New()
	r.Counter("a").Add(2)
	r.Distribution("never-observed") // registered but empty
	r.Distribution("seen").Observe(3)
	s := r.Snapshot()
	if s.Counters["a"] != 2 {
		t.Fatalf("snapshot counter = %d", s.Counters["a"])
	}
	if _, ok := s.Dists["never-observed"]; ok {
		t.Fatal("empty distribution must be omitted from snapshot")
	}
	sum, ok := s.Dists["seen"]
	if !ok || sum.N != 1 || sum.Mean != 3 {
		t.Fatalf("dist summary = %+v", sum)
	}
	// Snapshots are JSON-safe: no NaN can leak in (NaN is unmarshalable).
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot marshal: %v", err)
	}
	if len(b) == 0 {
		t.Fatal("empty snapshot JSON")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("z").Add(1)
		r.Counter("a").Add(2)
		r.Gauge("g").SetMax(9)
		r.Distribution("d").Observe(4)
		return r
	}
	b1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", b1, b2)
	}
}

func TestCounterNames(t *testing.T) {
	r := New()
	r.Counter("b")
	r.Counter("a")
	names := r.CounterNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	var nilReg *Registry
	if nilReg.CounterNames() != nil {
		t.Fatal("nil registry names must be nil")
	}
}

func TestSummarizeEmptyNeverReached(t *testing.T) {
	// Guard on the Snapshot invariant: an empty Dist would summarize to
	// NaN fields, which JSON cannot encode; Snapshot must filter those
	// before summarize ever sees them.
	r := New()
	r.Distribution("empty")
	if _, err := json.Marshal(r.Snapshot()); err != nil {
		t.Fatalf("snapshot with empty dist must marshal: %v", err)
	}
	// And the NaN behavior summarize would produce is real:
	s := summarize(metrics.NewDist(0))
	if !math.IsNaN(s.Mean) {
		t.Fatal("empty summarize must carry NaN (hence the filter)")
	}
}
