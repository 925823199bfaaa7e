// Package sweep runs independent simulation jobs in parallel. Every
// simulation in this repository is single-threaded and deterministic, so
// parameter sweeps (a figure's workload x scheme grid) parallelize
// perfectly across cores without affecting results.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// failure wraps a recovered panic value so that a nil-adjacent value is
// still distinguishable from "no panic".
type failure struct{ v any }

// Parallel executes every job and returns their results in job order,
// running up to workers jobs concurrently (workers <= 0 selects
// GOMAXPROCS).
//
// Jobs are claimed from a single atomic counter, and each worker
// accumulates its results in a private arena that is merged into the
// ordered result slice only after all workers have joined — workers
// never share a cache line mid-sweep, and the output is invariant to
// worker count and scheduling (see TestParallelEquivalenceProperty).
//
// A panicking job aborts the sweep: remaining workers stop claiming new
// jobs, in-flight jobs finish, and the first recovered panic value is
// re-panicked to the caller once every worker has exited (no goroutine
// is leaked and no worker deadlocks).
func Parallel[T any](jobs []func() T, workers int) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]T, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if workers <= 1 {
		for i, job := range jobs {
			results[i] = job()
		}
		return results
	}

	type indexed struct {
		i int
		v T
	}
	var (
		next     atomic.Int64
		aborted  atomic.Bool
		panicked atomic.Pointer[failure]
		wg       sync.WaitGroup
	)
	arenas := make([][]indexed, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := make([]indexed, 0, len(jobs)/workers+1)
			defer func() { arenas[w] = arena }()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				v, ok := runJob(jobs[i], &aborted, &panicked)
				if !ok {
					return
				}
				arena = append(arena, indexed{i: i, v: v})
			}
		}(w)
	}
	wg.Wait()
	if f := panicked.Load(); f != nil {
		panic(f.v)
	}
	for _, arena := range arenas {
		for _, e := range arena {
			results[e.i] = e.v
		}
	}
	return results
}

// runJob executes one job, converting a panic into a sweep abort that
// preserves the first panic value. ok is false when the job panicked.
func runJob[T any](job func() T, aborted *atomic.Bool, panicked *atomic.Pointer[failure]) (v T, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked.CompareAndSwap(nil, &failure{v: r})
			aborted.Store(true)
			ok = false
		}
	}()
	return job(), true
}
