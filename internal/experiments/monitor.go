package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"centaur/internal/telemetry"
)

// poolProgress counts trials across every runTrials call in the
// process — the live numerator/denominator StartProgress reports.
// Process-wide because a harness run (centaur-bench) runs several
// grids one after another and the operator wants one overall progress
// line.
var poolProgress struct {
	done  atomic.Int64
	total atomic.Int64
}

// ProgressCounts returns how many trial chunks have completed out of
// those scheduled so far in this process.
func ProgressCounts() (done, total int64) {
	return poolProgress.done.Load(), poolProgress.total.Load()
}

// StartProgress emits a progress line to w every interval until the
// returned stop function is called: chunks done/total with an ETA
// extrapolated from the completion rate, and — when reg is enabled —
// the simulated message throughput from its "sim.msgs" counter. Each
// tick also folds the current heap size into reg's "heap.max_bytes"
// high-water gauge, so long runs record their peak memory without a
// profiler attached.
func StartProgress(w io.Writer, interval time.Duration, reg *telemetry.Registry) func() {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	stop := make(chan struct{})
	go func() {
		start := time.Now()
		msgs := reg.Counter("sim.msgs")
		heap := reg.Gauge("heap.max_bytes")
		lastMsgs := msgs.Value()
		lastTick := start
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-ticker.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap.SetMax(int64(ms.HeapAlloc))
				done, total := ProgressCounts()
				line := fmt.Sprintf("progress: %d/%d chunks", done, total)
				if done > 0 && total > done {
					elapsed := now.Sub(start)
					eta := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
					line += fmt.Sprintf(" eta %s", eta.Round(time.Second))
				}
				if reg.Enabled() {
					cur := msgs.Value()
					rate := float64(cur-lastMsgs) / now.Sub(lastTick).Seconds()
					line += fmt.Sprintf(" %.0f msgs/s", rate)
					lastMsgs = cur
				}
				lastTick = now
				fmt.Fprintln(w, line)
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if once.CompareAndSwap(false, true) {
			close(stop)
		}
	}
}
