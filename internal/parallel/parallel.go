// Package parallel holds the shared bounded worker pool behind every
// compute-heavy path in the analysis engine — SGBRT binning, the
// pairwise interaction ranker, the DTW error sweeps, and KNN
// imputation in the cleaner — and the Crew that runs SGBRT's per-level
// split search. It replaces the ad-hoc per-package goroutine helpers
// with one implementation and one determinism contract:
//
//   - Work items are identified by index; every result must be written
//     to its own index-addressed slot, never appended or reduced
//     inside workers. Callers then aggregate serially in index order,
//     so the output is bit-identical for any worker count.
//   - When several items fail, the error of the lowest index is
//     returned, matching what a serial loop would have reported.
//
// The Ctx variants add cooperative cancellation: workers observe the
// context between items (never mid-item), so cancel latency is bounded
// by one work item. Their error contract is deterministic too — when
// the context is done and the pool stopped before every item
// completed, the call returns ctx.Err(); when all n items completed,
// the late cancellation is ignored and the call reports the work that
// was done. No goroutine outlives the call either way: the pool always
// drains before returning.
//
// A worker count <= 0 selects runtime.GOMAXPROCS(0), so the engine
// scales with cores by default and can be pinned (e.g. the cmexp
// -workers flag) for reproducible scheduling experiments.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 default to
// runtime.GOMAXPROCS(0), everything else is returned unchanged.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines (Workers-resolved). Indices are claimed in increasing
// order. After the first failure no new indices are claimed; already
// claimed items run to completion and the error with the lowest index
// is returned — the same error a serial loop would surface.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachWorkerCtx(context.Background(), n, workers, func(_, i int) error { return fn(i) })
}

// ForEachCtx is ForEach with cooperative cancellation: workers check
// ctx between items and stop claiming once it is done. If the pool
// stopped before all n items completed, ForEachCtx returns ctx.Err();
// if every item completed despite a late cancellation, it returns the
// items' verdict (nil or the lowest-index error).
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, n, workers, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach with the worker's identity (in [0, workers))
// passed to fn, so callers can maintain per-worker scratch buffers
// without synchronisation.
func ForEachWorker(n, workers int, fn func(worker, i int) error) error {
	return ForEachWorkerCtx(context.Background(), n, workers, fn)
}

// ForEachWorkerCtx is ForEachCtx with the worker's identity passed to
// fn. It is the single implementation the other entry points wrap.
func ForEachWorkerCtx(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next      atomic.Int64
		failed    atomic.Bool
		completed atomic.Int64
		wg        sync.WaitGroup
		mu        sync.Mutex
		errIdx    = -1
		first     error
	)
	next.Store(-1)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !failed.Load() {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := fn(worker, i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
				} else {
					completed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	// Cancellation verdict: once every worker has returned, either all
	// n items completed — the cancellation arrived too late to matter,
	// report the work — or some were skipped, in which case ctx.Err()
	// is the only deterministic answer (which item errors exist depends
	// on where the cancellation landed).
	if err := ctx.Err(); err != nil && completed.Load() < int64(n) {
		return err
	}
	// Indices are claimed in increasing order, so when any item fails,
	// every lower index was claimed too and has recorded its own error
	// (if it had one) before wg.Wait returns: `first` is the error of
	// the lowest failing index, deterministically.
	return first
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. On error the slice is nil
// and the lowest-index error is returned.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), n, workers, fn)
}

// MapCtx is Map with cooperative cancellation, under the ForEachCtx
// contract: a cancellation that stopped the pool early returns
// (nil, ctx.Err()).
func MapCtx[T any](ctx context.Context, n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEachCtx(ctx, n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
