// Package parutil holds the worker-pool primitive shared by the parallel
// fan-outs (core's per-relation MinCover and RBR block pruning,
// implication.ParallelMinCover's reduction and screen): n independent
// items, a bounded worker count, an atomic cursor. Callers write results
// into per-item slots, so output order never depends on scheduling; the
// worker index lets a caller keep per-worker state, such as one
// implication session per worker. PanicError is the error the library's
// compute workers report a recovered panic as.
package parutil

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"cfdprop/internal/faultinject"
)

// Do runs fn(0) … fn(n-1) across at most workers goroutines and returns
// when all calls finish. workers <= 1 (or n < 2) degrades to a plain
// serial loop on the calling goroutine. fn must be safe to call from
// multiple goroutines on distinct items.
//
// Do preserves its historical contract: a panicking fn propagates as a
// panic on the caller (it is captured at the worker boundary and re-raised
// here, so it never deadlocks the WaitGroup).
func Do(n, workers int, fn func(i int)) {
	if err := DoCtx(context.Background(), n, workers, func(_, i int) { fn(i) }); err != nil {
		panic(err)
	}
}

// DoCtx is Do with cooperative cancellation, panic capture and the index
// of the worker running each item: fn(w, i) runs item i on worker w, with
// 0 ≤ w < min(workers, n), and a worker runs one item at a time, so state
// indexed by w is never shared between concurrent calls. Workers check ctx
// between items and stop claiming new ones once it is done; items already
// started run to completion. A panicking fn is recovered at the worker
// boundary and surfaces as a non-nil error (never a process crash or a
// WaitGroup deadlock). When both occur, the panic error wins. Returns
// ctx.Err() if the context was cancelled, nil otherwise.
func DoCtx(ctx context.Context, n, workers int, fn func(w, i int)) error {
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if err := call(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		stop.Store(true)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := call(fn, w, i); err != nil {
					record(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}

// call invokes fn(w, i) with the faultinject seam and panic recovery.
func call(fn func(w, i int), w, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(fmt.Sprintf("parutil: worker panic on item %d", i), r)
		}
	}()
	faultinject.Hit(faultinject.SiteParutilWorker)
	fn(w, i)
	return nil
}

// PanicError is the one error a panic recovered at a compute-worker
// boundary becomes: these fan-outs and propagation's task and enumeration
// workers. A caller that must tell a crash from a bad input finds it with
// errors.As; the daemon answers it with a 500, as it answers a panic on
// the request goroutine.
type PanicError struct {
	Where string // which worker, e.g. "parutil: worker panic on item 3"
	Value any    // the value the worker panicked with
	Stack []byte // the worker's stack at the recovery
}

func (e *PanicError) Error() string { return fmt.Sprintf("%s: %v\n%s", e.Where, e.Value, e.Stack) }

// Recovered builds the PanicError for a panic value just recovered in a
// deferred call, capturing the panicking goroutine's stack.
func Recovered(where string, v any) *PanicError {
	return &PanicError{Where: where, Value: v, Stack: debug.Stack()}
}
