// Package runner executes batches of independent simulation jobs on a
// worker pool. Every session is a fully seeded, single-threaded
// discrete-event simulation, so sessions are embarrassingly parallel:
// the pool fans jobs out across cores and returns results in
// submission order, which keeps experiment artifacts byte-identical to
// a sequential run regardless of the worker count.
package runner

import (
	"runtime"
	"sync"

	"repro/internal/session"
)

// Options configures a pool.
type Options struct {
	// Workers is the number of concurrent jobs; <= 0 means
	// runtime.NumCPU().
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// NumWorkers reports the resolved worker count Map and MapN run with —
// the upper bound on the worker indexes MapN passes to fn, so callers
// can size per-worker state up front.
func (o Options) NumWorkers() int { return o.workers() }

// Map applies fn to every item on a pool of workers and returns the
// results indexed exactly like items. fn must be safe to call
// concurrently for distinct items; determinism is the caller's
// responsibility and in this repository comes from per-job seeds.
func Map[T, R any](o Options, items []T, fn func(i int, item T) R) []R {
	out := make([]R, len(items))
	MapN(o, len(items), func(_, i int) { out[i] = fn(i, items[i]) })
	return out
}

// MapN applies fn to every index in [0, n) on a pool of workers,
// passing the stable worker index the call runs on. Workers own
// disjoint index sets at any instant, so fn may reuse per-worker state
// (a recycled simulation world) keyed by the worker index without
// locking. Indexes are handed out in order; result placement and
// determinism are the caller's responsibility.
func MapN(o Options, n int, fn func(worker, i int)) {
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				fn(worker, i)
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// Sessions runs every session.Config on the pool and returns the
// results in submission order. Each config carries its own seed, so
// the outcome is bit-identical for any worker count.
func Sessions(o Options, cfgs []session.Config) []*session.Result {
	return Map(o, cfgs, func(_ int, cfg session.Config) *session.Result {
		return session.Run(cfg)
	})
}
