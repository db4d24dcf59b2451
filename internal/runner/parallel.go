package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cross-run parallelism. Run is a pure function of Options — it builds its
// own engine, cluster, DFS, scheduler, and DARE manager per call and
// shares no mutable state with other runs — so independent runs can
// execute on separate goroutines. Each simulated world stays strictly
// single-threaded (the determinism contract); only whole runs fan out.
// Every experiment in this package runs its arms through forEachIndex, so
// one knob parallelizes the entire evaluation.

// parallelismOverride is the configured worker count; <= 0 means "use
// GOMAXPROCS". It is process-global (not per-Options) because it describes
// the host machine, not the experiment.
var parallelismOverride atomic.Int64

// SetParallelism bounds how many simulations may run concurrently across
// all experiments in this package. n <= 0 restores the default (GOMAXPROCS).
func SetParallelism(n int) { parallelismOverride.Store(int64(n)) }

// Parallelism reports the current worker bound.
func Parallelism() int {
	if n := parallelismOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// forEachIndex runs fn(0..n-1) across min(Parallelism(), n) workers and
// waits for completion. Workers pull indices from an atomic counter in
// ascending order; on error the remaining indices are abandoned and the
// error with the LOWEST index is returned — the same error a serial loop
// would have surfaced, regardless of goroutine interleaving. (The
// lowest-index property holds because indices are claimed in ascending
// order: every index below a claimed one was also claimed, so the minimum
// erroring index is always among the executed calls.)
func forEachIndex(n int, fn func(i int) error) error {
	workers := Parallelism()
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
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		firstIdx = -1
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstIdx < 0 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunAll executes every Options on the worker pool and returns the outputs
// in input order. Results are deterministic: outs[i] is exactly what
// Run(opts[i]) returns, and on failure the returned error is the one the
// serial loop would have hit first.
func RunAll(opts []Options) ([]*Output, error) {
	outs := make([]*Output, len(opts))
	err := forEachIndex(len(opts), func(i int) error {
		out, err := Run(opts[i])
		if err != nil {
			return fmt.Errorf("runner: run %d: %w", i, err)
		}
		outs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
