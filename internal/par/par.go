// Package par holds the deterministic worker-pool primitives shared by the
// scorer and the data-parallel trainer (internal/core): a bounded parallel
// loop with drain-on-cancel semantics and the bounds-chunking helper that
// splits a batch across a pool.
//
// Both primitives are deliberately free of any scheduling nondeterminism
// that could leak into results: For hands out indices from an atomic
// counter but callers write only to their own output slot, and Bounds is a
// pure function of its arguments — so the code using them can make
// bit-identity guarantees across worker counts (the scorer's union-forward
// identity, the trainer's fixed-order gradient merge).
package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) over at most workers goroutines, stopping early when
// the context is cancelled or any fn returns an error.
//
// Abort semantics are a partial-work drain: the context and the shared stop
// flag are re-checked before each index a worker claims, so after a
// cancellation no new work starts, every worker finishes the item it is
// inside, and For returns only when all workers have parked. The first
// error wins; output slots written before the abort are simply discarded by
// the caller.
//
// workers <= 1 (or n <= 1) degrades to a serial loop on the calling
// goroutine with the same per-index context check.
//
// A panic in fn surfaces from For on the calling goroutine, on either path,
// so the caller's recover sees it. On a worker it is recovered and treated
// like an error — no new index starts, every worker parks — and then
// re-raised as an error carrying the worker's stack.
func For(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next       atomic.Int64
		stop       atomic.Bool
		errOnce    sync.Once
		firstErr   error
		panicOnce  sync.Once
		firstPanic *workerPanic
		wg         sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { firstPanic = &workerPanic{value: r, stack: debug.Stack()} })
					stop.Store(true)
				}
			}()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
	return firstErr
}

// call runs fn(i), counted in busyWorkers while it runs (panics included).
func call(fn func(i int) error, i int) error {
	busyWorkers.Add(1)
	defer busyWorkers.Add(-1)
	return fn(i)
}

// workerPanic is the value For panics with when fn panicked on a worker
// goroutine: the recovered value and the stack of the worker it was
// recovered on, which the calling goroutine's own stack no longer shows.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("par: panic in worker: %v\n\n%s", p.value, p.stack)
}

// busyWorkers counts goroutines (or the calling goroutine, on the serial
// path) currently inside a For body, process-wide. One atomic add per item
// on either side of fn — negligible against any fn that does real work, and
// it gives the pool a live utilization signal (see RegisterMetrics).
var busyWorkers atomic.Int64

// Busy reports how many For workers are executing a loop body right now,
// across every concurrent For in the process.
func Busy() int {
	return int(busyWorkers.Load())
}

// Bounds splits n items into contiguous [lo, hi) chunks — as even as
// possible across workers, never larger than maxChunk (and never smaller
// than 1). It is a pure function: the same (n, workers, maxChunk) always
// yields the same bounds, and every index in [0, n) appears in exactly one
// chunk, in order.
func Bounds(n, workers, maxChunk int) [][2]int {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	size := (n + workers - 1) / workers
	if maxChunk >= 1 && size > maxChunk {
		size = maxChunk
	}
	if size < 1 {
		size = 1
	}
	bounds := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
	}
	return bounds
}
