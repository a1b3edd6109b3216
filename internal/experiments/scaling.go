package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"centaur/internal/metrics"
	"centaur/internal/policy"
	"centaur/internal/solver"
	"centaur/internal/topogen"
)

// DefaultScalingSizes spans the previous experiment ceiling (1k/4k) and
// the first internet-order size (16k).
func DefaultScalingSizes() []int { return ScalingSizesUpTo(16000) }

// ScalingSizesUpTo returns the sweep tiers up to and including max
// nodes: {1k, 4k, 16k, 75k}. The 75k tier is the real-AS-graph scale
// (CAIDA's AS topology is ~75k ASes); it is opt-in via max because a
// cold solve there takes on the order of an hour on one core even in
// the sharded layout.
func ScalingSizesUpTo(max int) []int {
	all := []int{1000, 4000, 16000, 75000}
	sizes := make([]int, 0, len(all))
	for _, n := range all {
		if n <= max {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		sizes = append(sizes, all[0])
	}
	return sizes
}

// ScalingPoint is one sweep point. Times are wall clock; allocation
// figures are process TotalAlloc deltas (transient scratch included),
// the honest cost of each path rather than just the live footprint.
type ScalingPoint struct {
	Nodes int
	Links int
	// ColdSolveMS / ColdAllocMB: one all-destinations SolveOpts.
	ColdSolveMS float64
	ColdAllocMB float64
	// IndexMS / IndexMB: building the reverse next-hop index, paid once
	// per solution before the first incremental flip.
	IndexMS float64
	IndexMB float64
	// Fail*/Restore*: per-phase Solution.Resolve latency in microseconds
	// over the flip series.
	FailMeanUS    float64
	FailP95US     float64
	RestoreMeanUS float64
	RestoreP95US  float64
	// FlipAllocKB is allocation per fail+restore cycle.
	FlipAllocKB float64
	// MeanDirty is the mean number of destinations re-run per resolve.
	MeanDirty float64
	// Speedup is the cold solve time over the mean single-phase
	// incremental resolve time.
	Speedup float64
	// Layout is the table layout the solver picked for this size
	// ("dense" below the auto-shard cutover, "sharded" above it).
	Layout string
	// TableMB is the live footprint of the converged table
	// (Solution.MemoryBytes) — the resident cost of holding the answer,
	// as opposed to ColdAllocMB's cumulative churn.
	TableMB float64
	// Verified reports the answer-identical check after the flip series
	// (always true when Scenario.Verify ran; false means the check
	// was skipped). Dense points compare against a second cold solve;
	// sharded points use the shard-streamed cold solve so verification
	// never doubles the resident footprint.
	Verified bool
}

// ScalingResult is the sweep across all configured sizes.
type ScalingResult struct {
	TieBreak policy.TieBreakMode
	Points   []ScalingPoint
}

// Scaling runs the solver scaling sweep: for each
// CAIDA-like topology of s.Sizes nodes (empty = DefaultScalingSizes;
// the real AS graph's ~75k nodes only with an explicit entry), one cold
// all-destinations solve under hashed tie-breaks is measured against
// s.Flips (0 = 30) single-link fail+restore trials re-solved
// incrementally, links sampled from s.Seed. With s.Verify every topology
// is re-solved from scratch after its flip series (all links restored),
// and the sweep fails unless the incrementally maintained tables are
// identical — one extra cold solve per size. The flip series is serial
// by design: Resolve mutates the solution in place, and the point of the
// measurement is single-flip latency at steady state, not throughput.
func Scaling(s Scenario) (*ScalingResult, error) {
	sizes := s.Sizes
	if len(sizes) == 0 {
		sizes = DefaultScalingSizes()
	}
	flips := s.Flips
	if flips <= 0 {
		flips = 30
	}
	opts := solver.Options{TieBreak: hashedPolicy.TieBreak}
	res := &ScalingResult{TieBreak: opts.TieBreak, Points: make([]ScalingPoint, 0, len(sizes))}
	for _, n := range sizes {
		g, err := topogen.CAIDALike(n, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d: %w", n, err)
		}
		pt := ScalingPoint{Nodes: n, Links: g.NumEdges()}

		a0 := totalAlloc()
		t0 := time.Now()
		sol, err := hashedSolve(g)
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling n=%d cold solve: %w", n, err)
		}
		pt.ColdSolveMS = msSince(t0)
		pt.ColdAllocMB = float64(totalAlloc()-a0) / (1 << 20)
		pt.Layout = sol.Layout().String()
		pt.TableMB = float64(sol.MemoryBytes()) / (1 << 20)

		a0 = totalAlloc()
		t0 = time.Now()
		sol.PrimeReverseIndex()
		pt.IndexMS = msSince(t0)
		pt.IndexMB = float64(totalAlloc()-a0) / (1 << 20)

		edges := g.Edges()
		rng := rand.New(rand.NewSource(s.Seed + int64(n)))
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if flips < len(edges) {
			edges = edges[:flips]
		}
		fail := metrics.NewDist(len(edges))
		restore := metrics.NewDist(len(edges))
		var dirty int64
		a0 = totalAlloc()
		for _, e := range edges {
			if !g.RemoveEdge(e.A, e.B) {
				return nil, fmt.Errorf("experiments: scaling n=%d: removing %v: no such link", n, e)
			}
			t := time.Now()
			st, err := sol.Resolve([]solver.Flip{{A: e.A, B: e.B}})
			if err != nil {
				return nil, fmt.Errorf("experiments: scaling n=%d: resolving failure of %v: %w", n, e, err)
			}
			fail.Add(usSince(t))
			dirty += int64(st.Dirty)
			if err := g.AddEdge(e.A, e.B, e.Rel); err != nil {
				return nil, fmt.Errorf("experiments: scaling n=%d: restoring %v: %w", n, e, err)
			}
			t = time.Now()
			st, err = sol.Resolve([]solver.Flip{{A: e.A, B: e.B}})
			if err != nil {
				return nil, fmt.Errorf("experiments: scaling n=%d: resolving restore of %v: %w", n, e, err)
			}
			restore.Add(usSince(t))
			dirty += int64(st.Dirty)
		}
		pt.FlipAllocKB = float64(totalAlloc()-a0) / 1024 / float64(len(edges))
		pt.FailMeanUS = fail.Mean()
		pt.FailP95US = fail.Percentile(95)
		pt.RestoreMeanUS = restore.Mean()
		pt.RestoreP95US = restore.Percentile(95)
		pt.MeanDirty = float64(dirty) / float64(2*len(edges))
		if mean := (fail.Mean() + restore.Mean()) / 2; mean > 0 {
			pt.Speedup = pt.ColdSolveMS * 1000 / mean
		}
		if s.Verify {
			if sol.Layout() == solver.LayoutSharded {
				// Stream the cold side shard by shard: the check never
				// holds a second full table, so it stays affordable at
				// exactly the sizes where sharding matters.
				ok, err := solver.StreamEqual(g, opts, sol)
				if err != nil {
					return nil, fmt.Errorf("experiments: scaling n=%d verify stream: %w", n, err)
				}
				if !ok {
					return nil, fmt.Errorf("experiments: scaling n=%d: incremental tables diverged from streamed cold solve after %d flips", n, len(edges))
				}
			} else {
				cold, err := hashedSolve(g)
				if err != nil {
					return nil, fmt.Errorf("experiments: scaling n=%d verify solve: %w", n, err)
				}
				if !sol.Equal(cold) {
					return nil, fmt.Errorf("experiments: scaling n=%d: incremental tables diverged from cold solve after %d flips", n, len(edges))
				}
			}
			pt.Verified = true
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// totalAlloc returns the process' cumulative allocation counter.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

// String renders the sweep.
func (r *ScalingResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scaling. Incremental warm-start solver vs cold re-solve (CAIDA-like, %v tie-break).\n", r.TieBreak)
	fmt.Fprintf(&b, "%8s %8s %8s %11s %10s %9s %20s %20s %10s %8s %9s %9s\n",
		"nodes", "links", "layout", "cold-solve", "cold-MB", "table-MB",
		"fail-us(mean/p95)", "rest-us(mean/p95)", "alloc/flip", "dirty", "speedup", "verified")
	for _, p := range r.Points {
		verified := "-"
		if p.Verified {
			verified = "yes"
		}
		fmt.Fprintf(&b, "%8d %8d %8s %10.0fms %9.1f %9.1f %11.0f /%7.0f %11.0f /%7.0f %8.1fkB %8.1f %8.0fx %9s\n",
			p.Nodes, p.Links, p.Layout, p.ColdSolveMS, p.ColdAllocMB, p.TableMB,
			p.FailMeanUS, p.FailP95US, p.RestoreMeanUS, p.RestoreP95US,
			p.FlipAllocKB, p.MeanDirty, p.Speedup, verified)
	}
	return b.String()
}
