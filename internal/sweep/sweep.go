// Package sweep is the deterministic parallel executor behind every
// figure regeneration: it fans the independent tasks of a sweep (problem
// sizes, repeated runs, whole figures) out across a bounded worker pool
// and reassembles the results in task order.
//
// Determinism is by construction, not by luck. Each task must derive all
// of its randomness from Seed(base, index) — its own substream of the
// sweep's base seed — and share no mutable state with other tasks, so a
// task computes the same result no matter which worker runs it or when.
// The executor then only reorders scheduling, never results: output with
// workers=N is byte-identical to workers=1, which the figures package
// asserts in its determinism test.
package sweep

import (
	"fmt"
	"runtime"
	"sync"

	"papimc/internal/xrand"
)

// Seed derives the seed of task index from a sweep's base seed. It is a
// SplitMix64 stream jump: adjacent indices yield statistically
// independent substreams, so per-task generators do not correlate.
func Seed(base uint64, index int) uint64 {
	const gamma = 0x9E3779B97F4A7C15
	return xrand.Mix(base + uint64(index+1)*gamma)
}

// Seed2 derives the seed of element (i, j) of a two-level substream
// hierarchy — cohort i, client j in the workload model's use — by
// re-splitting substream i. Rows never collide with each other or with
// the single-level Seed stream of the same base, so a million clients
// across many cohorts all draw from statistically independent streams.
func Seed2(base uint64, i, j int) uint64 {
	return Seed(Seed(base, i), j)
}

// Workers resolves a -j style parallelism request: values below 1 mean
// "one worker per available CPU" (GOMAXPROCS).
func Workers(requested int) int {
	if requested < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Map runs fn(0..n-1) on up to workers goroutines and returns the
// results in index order. fn must be safe for concurrent invocation and
// derive any randomness from its index (see Seed). If any invocation
// fails, Map waits for the remaining tasks and returns the error of the
// lowest failing index — the same error serial execution would surface —
// with its index attached.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		// Serial fast path: same code path the workers run, no goroutines.
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, fmt.Errorf("sweep: task %d: %w", i, err)
			}
			results[i] = v
		}
		return results, nil
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		errIdx   int
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := fn(i)
				if err != nil {
					errMu.Lock()
					if firstErr == nil || i < errIdx {
						firstErr, errIdx = err, i
					}
					errMu.Unlock()
					continue
				}
				results[i] = v
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("sweep: task %d: %w", errIdx, firstErr)
	}
	return results, nil
}

// Each is Map for tasks with no result value.
func Each(n, workers int, fn func(i int) error) error {
	_, err := Map(n, workers, func(i int) (struct{}, error) { return struct{}{}, fn(i) })
	return err
}
