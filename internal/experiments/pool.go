package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelEach runs fn(0), …, fn(n-1) on up to workers goroutines and
// returns the lowest-index error, if any. workers ≤ 0 means GOMAXPROCS;
// an effective worker count of one runs inline with no goroutines.
//
// Correct use requires that fn(i) writes only into its own index-i slot
// of any shared output, so the observable result is independent of the
// worker count and of scheduling. parallelEach must not be nested:
// callers with two fan-out dimensions (protocol × trial chunk) flatten
// them into one task list instead.
func parallelEach(n, workers int, fn func(i int) error) error {
	return parallelEachWith(n, workers, func(_ *struct{}, i int) error { return fn(i) })
}

// parallelEachWith is parallelEach with per-worker scratch: every worker
// owns one zero-initialized S and hands it to each fn call it runs, so fn
// can recycle storage from one index to the next without sharing it.
// What fn leaves in its slot must not depend on what an earlier call
// left in S.
func parallelEachWith[S any](n, workers int, fn func(sc *S, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var sc S
		for i := 0; i < n; i++ {
			if err := fn(&sc, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var sc S
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(&sc, i)
			}
		}()
	}
	wg.Wait()
	// Lowest-index error, matching what the inline loop would surface.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
