// Package parallel provides the bounded worker pool the evaluation
// engine and scheduler fan out over. It is stdlib-only and deliberately
// small: callers hand it an index range and a function; results are
// written into pre-sized slices by index, so the output of a parallel
// run is bit-identical to the sequential one regardless of scheduling.
//
// The package-level default worker count starts at GOMAXPROCS and can be
// overridden (the experiments binary plumbs a -parallelism flag through
// SetDefaultWorkers). Worker count 1 degenerates to a plain sequential
// loop with no goroutines, which keeps single-threaded runs cheap and
// makes "sequential vs parallel" comparisons honest.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the pool width used by ForEach/Map when the caller
// does not specify one. Accessed atomically so tests and the CLI can
// change it while benchmarks run in other goroutines.
var defaultWorkers atomic.Int64

func init() {
	defaultWorkers.Store(int64(runtime.GOMAXPROCS(0)))
}

// SetDefaultWorkers overrides the default pool width. Values below 1 are
// clamped to 1. It returns the previous setting so callers can restore
// it.
func SetDefaultWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(defaultWorkers.Swap(int64(n)))
}

// DefaultWorkers returns the current default pool width.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// ForEach runs fn(i) for every i in [0, n) on the default worker pool.
// See ForEachN for the error contract.
func ForEach(n int, fn func(i int) error) error {
	return ForEachN(DefaultWorkers(), n, fn)
}

// ForEachN runs fn(i) for every i in [0, n) using at most `workers`
// concurrent goroutines. Indices are claimed from an atomic counter, so
// the set of executed indices is exactly [0, n) when no error occurs.
//
// Error contract (first-error propagation): when one or more calls fail,
// ForEachN returns the error raised at the smallest index among the
// failures it observed; once any error is recorded, workers stop
// claiming new indices (in-flight calls still finish). With a
// deterministic fn whose first failure is at index k, every run returns
// the error from index k because indices are claimed in ascending order.
func ForEachN(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ForEachCtx is ForEach with cancellation: workers stop claiming new
// indices once ctx is done. See ForEachNCtx for the error contract.
func ForEachCtx(ctx context.Context, n int, fn func(i int) error) error {
	return ForEachNCtx(ctx, DefaultWorkers(), n, fn)
}

// ForEachNCtx is ForEachN with cancellation. Cancellation is treated as
// a failure observed at the next unclaimed index: workers stop claiming
// once ctx is done, in-flight calls still finish, and the return value
// is ctx.Err() unless fn itself failed at a smaller index (the ForEachN
// first-error contract applies across both kinds of failure). fn is not
// handed the context; long-running bodies that want to observe
// cancellation mid-call should close over ctx themselves.
func ForEachNCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	record := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					record(i, err)
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Map runs fn(i) for every i in [0, n) on the default worker pool and
// collects the results into a pre-sized slice indexed by i. Ordering is
// therefore identical to a sequential loop. On error the slice is nil
// and the first error (smallest index observed, see ForEachN) is
// returned.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return MapN[T](DefaultWorkers(), n, fn)
}

// MapN is Map with an explicit worker count.
func MapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEachN(workers, n, func(i int) error {
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

// MapNCtx is MapN with cancellation; see ForEachNCtx for semantics.
func MapNCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEachNCtx(ctx, workers, n, func(i int) error {
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
