package parutil

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDoCoversAllItems(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		const n = 100
		var hits [n]atomic.Int32
		Do(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestDoCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := DoCtx(ctx, 50, workers, func(_, i int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d items ran under a pre-cancelled context", workers, ran.Load())
		}
	}
}

func TestDoCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 10000
		var ran atomic.Int32
		err := DoCtx(ctx, n, workers, func(_, i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Items in flight finish, but no worker claims new work after the
		// cancellation is observed.
		if got := ran.Load(); got >= n {
			t.Fatalf("workers=%d: cancellation ignored, all %d items ran", workers, got)
		}
	}
}

func TestDoCtxPanicCaptured(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := DoCtx(context.Background(), 20, workers, func(_, i int) {
			if i == 3 {
				panic("boom")
			}
		})
		if err == nil || !strings.Contains(err.Error(), "worker panic on item") {
			t.Fatalf("workers=%d: err = %v, want captured panic", workers, err)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Fatalf("workers=%d: panic value lost: %v", workers, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Fatalf("workers=%d: err = %v, want a PanicError carrying the panic value", workers, err)
		}
	}
}

// TestDoRepanics: Do keeps its historical contract — a panicking fn
// surfaces as a panic on the caller, after all workers have been joined
// (no WaitGroup deadlock, no crash on a worker goroutine).
func TestDoRepanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Do swallowed the worker panic")
		}
		err, ok := r.(error)
		if !ok || !strings.Contains(err.Error(), "worker panic on item") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	Do(20, 4, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

// TestDoCtxPanicWinsOverCancel: when a panic and a cancellation race, the
// panic error is reported — losing it could hide a real bug behind a
// routine timeout.
func TestDoCtxPanicWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := DoCtx(ctx, 20, 1, func(_, i int) {
		if i == 2 {
			cancel()
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "worker panic on item 2") {
		t.Fatalf("err = %v, want the panic error", err)
	}
}

// TestDoCtxWorkerIndex pins the worker index contract that per-worker
// state (one implication session per worker) depends on: every call sees
// 0 ≤ w < min(workers, n), and no two calls with the same w overlap.
func TestDoCtxWorkerIndex(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 3, 8} {
		limit := min(workers, n)
		inUse := make([]atomic.Bool, limit)
		var bad atomic.Int32
		err := DoCtx(context.Background(), n, workers, func(w, i int) {
			if w < 0 || w >= limit {
				bad.Add(1)
				return
			}
			if !inUse[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return
			}
			runtime.Gosched()
			inUse[w].Store(false)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := bad.Load(); got != 0 {
			t.Fatalf("workers=%d: %d calls saw an out-of-range or already busy worker index", workers, got)
		}
	}
}
