// Package parrun executes independent jobs on a fixed-size worker pool
// while committing results in input order, so any output derived from
// them is byte-identical to a serial run.
//
// The determinism argument is structural, not scheduling-dependent:
// workers write only to their own job's pre-assigned slot in the result
// slice (no shared accumulator, no append), and callers consume the
// slice only after Map returns, which happens after every worker has
// exited. The OS may interleave job *execution* arbitrarily; job
// *results* land at fixed indices, and rendering happens afterwards in
// index order. With workers == 1 the pool is bypassed entirely and jobs
// run on the calling goroutine — exactly the pre-parallel code path.
//
// The package deliberately avoids select, time, and math/rand so it
// stays inside the repolint nondeterminism contract for library code.
package parrun

import (
	"runtime"
	"sync"
)

// Workers normalises a -parallel flag value: anything below 1 means
// "one worker per available CPU" (GOMAXPROCS at call time).
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs fn(0) … fn(n-1) on at most `workers` goroutines and returns
// the results in input order. workers < 1 defaults to GOMAXPROCS;
// workers == 1 runs serially on the calling goroutine. If any job
// fails, Map returns the error of the lowest-indexed failing job —
// the same error a serial loop would have stopped on — and no results.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapWorker(workers, n, func(_, i int) (T, error) { return fn(i) })
}

// MapWorker is Map for jobs that reuse state their worker owns: fn(w, i)
// runs job i on worker w, where w < Workers(workers) and w < n. A worker
// runs one job at a time, so fn may keep scratch state in a slot indexed
// by w and hand it to that worker's next job. Which worker runs which job
// depends on scheduling, so nothing a job returns may depend on w.
func MapWorker[T any](workers, n int, fn func(w, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(0, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
