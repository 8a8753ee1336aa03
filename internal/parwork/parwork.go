// Package parwork is the minimal indexed worker pool shared by the
// harness and the fault-injection campaign engines. Both fan independent
// jobs (experiment runs, campaign cases) across host goroutines and then
// aggregate results serially in job order, so parallel execution changes
// wall-clock time but never any reported number.
package parwork

import (
	"sync"
	"sync/atomic"
)

// Do runs fn(i) for every i in [0, n), on min(workers, n) goroutines.
// Jobs are claimed in index order; with workers <= 1 the loop runs
// inline, in order, on the calling goroutine. fn must write its result
// into a caller-owned slot indexed by i — Do itself returns only after
// every job has finished, so the caller can aggregate the slots in
// deterministic job order afterwards.
func Do(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map is Do over items: it returns fn(item) for every item, in item
// order, whatever the completion order. progress, when non-nil, observes
// each result as it completes, one call at a time, with done counting
// from 1 to len(items); at workers <= 1 it sees the items in order.
func Map[T, R any](items []T, workers int, fn func(T) R, progress func(done, total int, r R)) []R {
	out := make([]R, len(items))
	var mu sync.Mutex
	done := 0
	Do(len(items), workers, func(i int) {
		out[i] = fn(items[i])
		if progress != nil {
			mu.Lock()
			done++
			progress(done, len(items), out[i])
			mu.Unlock()
		}
	})
	return out
}
