// Package telemetry is the cross-cutting observability layer: a
// lock-cheap registry of named counters, gauges, and sample
// distributions that the simulator, the protocol packages, and the
// experiment harness report into, plus a live debug HTTP endpoint
// (debug.go). The JSONL event trace is internal/trace's.
//
// The design constraint is that measurement must never distort what it
// measures. A nil *Registry is the disabled state: every handle it
// produces is a zero value whose methods are free no-ops (one nil check,
// zero allocations — enforced by TestNoopZeroAlloc), so instrumented hot
// paths cost nothing when telemetry is off. When enabled, counters and
// gauges are single atomics and distribution observations go to one of a
// small set of mutex-sharded sample buffers, so concurrent simulation
// workers (internal/experiments' pool) never contend on one lock.
//
// Metric handles are cheap value types; look them up once and reuse
// them. Registries merge (Merge) and snapshot (Snapshot) for folding
// per-run results into reports such as BENCH_report.json; distribution
// summaries reuse internal/metrics.Dist.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"

	"centaur/internal/metrics"
)

// Registry holds named metrics. Create with New; a nil *Registry is a
// valid disabled registry whose handles all no-op. Safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Int64
	dists    map[string]*shardedDist
}

// New returns an empty enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*atomic.Int64),
		gauges:   make(map[string]*atomic.Int64),
		dists:    make(map[string]*shardedDist),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the handle for the named monotonic counter, creating
// it at zero on first use. On a nil registry it returns a no-op handle.
func (r *Registry) Counter(name string) Counter {
	if r == nil {
		return Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.counters[name]
	if !ok {
		v = new(atomic.Int64)
		r.counters[name] = v
	}
	return Counter{v: v}
}

// Gauge returns the handle for the named gauge, creating it at zero on
// first use. On a nil registry it returns a no-op handle.
func (r *Registry) Gauge(name string) Gauge {
	if r == nil {
		return Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	if !ok {
		v = new(atomic.Int64)
		r.gauges[name] = v
	}
	return Gauge{v: v}
}

// Distribution returns the handle for the named sample distribution
// (latencies, per-phase convergence times, ...), creating it empty on
// first use. On a nil registry it returns a no-op handle.
func (r *Registry) Distribution(name string) Distribution {
	if r == nil {
		return Distribution{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.dists[name]
	if !ok {
		d = newShardedDist()
		r.dists[name] = d
	}
	return Distribution{d: d}
}

// Counter is a monotonically increasing atomic counter handle. The zero
// value is a no-op.
type Counter struct {
	v *atomic.Int64
}

// Add increments the counter by n. No-op on the zero handle.
func (c Counter) Add(n int64) {
	if c.v != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the zero handle).
func (c Counter) Value() int64 {
	if c.v == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value handle (heap bytes, queue length).
// The zero value is a no-op.
type Gauge struct {
	v *atomic.Int64
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation (e.g. peak heap). No-op on the zero handle.
func (g Gauge) SetMax(v int64) {
	if g.v == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// distShards is the fan-out of a sharded distribution. Observations
// pick a shard round-robin, so distShards concurrent observers never
// queue behind one mutex. Must be a power of two.
const distShards = 8

// shardedDist is the registry-internal distribution: per-shard sample
// buffers behind per-shard locks, merged at snapshot time.
type shardedDist struct {
	next   atomic.Uint32
	shards [distShards]distShard
}

// distShard is one lock + buffer pair, padded so neighboring shards do
// not share a cache line under write contention.
type distShard struct {
	mu      sync.Mutex
	samples []float64
	_       [32]byte
}

func newShardedDist() *shardedDist { return &shardedDist{} }

// Distribution is a sample-distribution handle. The zero value is a
// no-op.
type Distribution struct {
	d *shardedDist
}

// Observe records one sample. No-op on the zero handle.
func (d Distribution) Observe(v float64) {
	if d.d == nil {
		return
	}
	s := &d.d.shards[d.d.next.Add(1)&(distShards-1)]
	s.mu.Lock()
	s.samples = append(s.samples, v)
	s.mu.Unlock()
}

// N returns the number of recorded samples (0 on the zero handle).
func (d Distribution) N() int {
	if d.d == nil {
		return 0
	}
	n := 0
	for i := range d.d.shards {
		s := &d.d.shards[i]
		s.mu.Lock()
		n += len(s.samples)
		s.mu.Unlock()
	}
	return n
}

// Dist merges the shards into a fresh metrics.Dist for summary queries
// (nil on the zero handle).
func (d Distribution) Dist() *metrics.Dist {
	if d.d == nil {
		return nil
	}
	out := metrics.NewDist(d.N())
	for i := range d.d.shards {
		s := &d.d.shards[i]
		s.mu.Lock()
		for _, v := range s.samples {
			out.Add(v)
		}
		s.mu.Unlock()
	}
	return out
}

// DistSummary is the JSON-friendly summary of one distribution.
type DistSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// summarize reduces a non-empty Dist to its summary. Sorting first
// makes Mean sum the samples in ascending order, so the summary is
// bit-identical no matter how concurrent observers interleaved across
// shards (float addition does not commute across orderings).
func summarize(d *metrics.Dist) DistSummary {
	d.Samples()
	return DistSummary{
		N:    d.N(),
		Mean: d.Mean(),
		Min:  d.Min(),
		P50:  d.Median(),
		P90:  d.Percentile(90),
		P99:  d.Percentile(99),
		Max:  d.Max(),
	}
}

// Snapshot is a point-in-time copy of a registry's metrics, shaped for
// JSON reports (map keys marshal sorted, so equal registries produce
// byte-identical JSON). Empty distributions are omitted: they have no
// meaningful percentiles.
type Snapshot struct {
	Counters map[string]int64       `json:"counters,omitempty"`
	Gauges   map[string]int64       `json:"gauges,omitempty"`
	Dists    map[string]DistSummary `json:"dists,omitempty"`
}

// Snapshot captures the registry's current state (nil on a nil
// registry). Counters and gauges are read atomically per metric; the
// snapshot as a whole is not a consistent cut across metrics, which is
// fine for progress reporting and end-of-run folding.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*atomic.Int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*atomic.Int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	dists := make(map[string]*shardedDist, len(r.dists))
	for k, v := range r.dists {
		dists[k] = v
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
		Dists:    make(map[string]DistSummary, len(dists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, sd := range dists {
		d := (Distribution{d: sd}).Dist()
		if d.N() > 0 {
			s.Dists[k] = summarize(d)
		}
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
