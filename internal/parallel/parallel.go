// Package parallel is the bounded worker-pool execution engine behind
// every fan-out in this repository. The work it accelerates is
// embarrassingly parallel by construction: the trials of an MTS sweep,
// Pareto exploration, Monte Carlo validation or chaos batch are
// independent simulations with independent seeds. Because the tasks are
// independent, parallel execution is *exact*, not approximate — the
// engine guarantees that results are returned in task order regardless
// of worker count, so a sweep at 1 worker and at GOMAXPROCS workers is
// byte-identical.
//
// Sweep is the one entry point: it runs n one-shot tasks (simulation
// runs, grid points, trials) across a bounded pool spawned for the
// call, with context cancellation and first-error propagation. Work
// that repeats every interface cycle (the per-channel ticks of
// multichannel.Memory) stays a plain loop: a hand-off to another
// goroutine costs more than a channel tick.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: n <= 0 selects
// runtime.GOMAXPROCS(0), and the result never exceeds limit when
// limit > 0 (there is no point in more workers than tasks).
func Workers(n, limit int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if limit > 0 && n > limit {
		n = limit
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Seed derives a decorrelated per-task seed from a base seed and a task
// index with the SplitMix64 finalizer, so neighbouring tasks do not get
// neighbouring (and therefore correlated) PRNG streams. The mapping is
// pure: the same (base, i) always yields the same seed, which is what
// keeps seeded sweeps deterministic under any worker count.
func Seed(base uint64, i int) uint64 {
	z := base + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Options configures a Sweep.
type Options struct {
	// Workers bounds the number of concurrent tasks; <= 0 means
	// runtime.GOMAXPROCS(0). The worker count never changes the result,
	// only the wall clock.
	Workers int
}

// Sweep runs fn(ctx, i) for every i in [0, n) across a bounded worker
// pool and returns the n results in task order — the same slice no
// matter how many workers executed it. Tasks must be independent: fn
// must not communicate between indices except through its own captured
// state with proper synchronization.
//
// The first error (lowest task index among failures) cancels the
// sweep's context and is returned; remaining queued tasks are skipped.
// A nil ctx is treated as context.Background().
func Sweep[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := Workers(opts.Workers, n)
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(ctx, i)
			if err != nil {
				return nil, &TaskError{Index: i, Err: err}
			}
			results[i] = v
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next atomic.Int64
		mu   sync.Mutex
		ferr *TaskError // failure with the lowest task index
		wg   sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if ferr == nil || i < ferr.Index {
			ferr = &TaskError{Index: i, Err: err}
		}
		mu.Unlock()
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					return
				}
				v, err := fn(ctx, i)
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = v
			}
		}()
	}
	wg.Wait()
	if ferr != nil {
		return nil, ferr
	}
	return results, nil
}

// TaskError reports which task of a Sweep failed first (lowest index
// among observed failures, so the reported error is deterministic when
// the failing set is).
type TaskError struct {
	Index int
	Err   error
}

func (e *TaskError) Error() string { return fmt.Sprintf("parallel: task %d: %v", e.Index, e.Err) }

// Unwrap exposes the task's underlying error to errors.Is/As.
func (e *TaskError) Unwrap() error { return e.Err }
