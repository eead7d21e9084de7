package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines polls runtime.NumGoroutine until it drops back to
// the baseline (plus a small slack for runtime helpers) or the
// deadline expires, returning the last observed count.
func settleGoroutines(t *testing.T, baseline int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseline+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		called := false
		err := ForEachCtx(ctx, 10, workers, func(int) error { called = true; return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if called {
			t.Errorf("workers=%d: fn ran despite pre-canceled ctx", workers)
		}
	}
}

// TestForEachCtxCancelMidFlight cancels at several points of the item
// stream and asserts the three-part contract: the returned error is
// exactly ctx.Err(), no new items are claimed after the cancellation
// settles, and every pool goroutine exits (no leaks).
func TestForEachCtxCancelMidFlight(t *testing.T) {
	baseline := settleGoroutines(t, runtime.NumGoroutine())
	for _, cancelAt := range []int{0, 1, 7, 31} {
		for _, workers := range []int{1, 2, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			var ran, atCancel atomic.Int64
			err := ForEachCtx(ctx, 10_000, workers, func(i int) error {
				switch n := int(ran.Add(1)); {
				case n == cancelAt+1:
					cancel()
					// Other workers keep claiming items until cancel()
					// has closed the done channel, so the bound counts
					// from here, not from the cancelling item.
					atCancel.Store(ran.Load())
				case n > cancelAt+1:
					// Hold later items until the cancellation lands, so
					// a descheduled canceller cannot let the pool finish
					// all n items (which would rightly return nil).
					<-ctx.Done()
				}
				return nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAt=%d workers=%d: err = %v, want context.Canceled",
					cancelAt, workers, err)
			}
			// Cancellation is observed between items: once it has
			// settled, each worker may finish the item it already
			// claimed, but no more than `workers` extra items can run.
			if n, at := ran.Load(), atCancel.Load(); n > at+int64(workers) {
				t.Errorf("cancelAt=%d workers=%d: %d items ran, %d when cancel returned",
					cancelAt, workers, n, at)
			}
		}
	}
	if n := settleGoroutines(t, baseline); n > baseline+2 {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
}

// TestForEachCtxCompletedWork pins the completed-then-canceled rule on
// the deterministic serial path: when the context is canceled while
// the final item runs, all n items have completed and the call reports
// the finished work (nil), not the late cancellation.
func TestForEachCtxCompletedWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 8
	ran := 0
	err := ForEachCtx(ctx, n, 1, func(i int) error {
		ran++
		if i == n-1 {
			cancel() // fires after the last pre-item check
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil: all items completed before cancellation was observable", err)
	}
	if ran != n {
		t.Fatalf("ran %d of %d items", ran, n)
	}
}

// TestForEachCtxItemErrorBeatsLateCancel: when every item completed or
// failed normally and the error verdict is already determined, a
// cancellation that never stopped the pool must not mask the item
// error. (Serial path for determinism.)
func TestForEachCtxItemErrorWithoutCancel(t *testing.T) {
	ctx := context.Background()
	want := errors.New("item-3")
	err := ForEachCtx(ctx, 10, 1, func(i int) error {
		if i == 3 {
			return want
		}
		return nil
	})
	if err != want {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestForEachCtxCancelReturnsCtxErrNotItemErr: once the pool stops
// early on cancellation, ctx.Err() is the deterministic verdict even
// if some already-claimed item also failed.
func TestForEachCtxCancelReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := ForEachCtx(ctx, 1000, 4, func(i int) error {
		cancel()
		return errors.New("item error racing the cancellation")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := ForEachCtx(ctx, 1_000_000, 4, func(i int) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMapCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 10, 4, func(i int) (int, error) { return i, nil })
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx = (%v, %v), want nil slice and context.Canceled", out, err)
	}
}

func TestMapCtxCompletes(t *testing.T) {
	out, err := MapCtx(context.Background(), 12, 3, func(i int) (int, error) { return 2 * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestForEachWorkerCtxLeakSoak runs many cancel-mid-flight pools
// back-to-back and asserts the goroutine count settles at baseline —
// the regression test for pool-goroutine leaks under cancellation.
func TestForEachWorkerCtxLeakSoak(t *testing.T) {
	baseline := settleGoroutines(t, runtime.NumGoroutine())
	for round := 0; round < 50; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_ = ForEachWorkerCtx(ctx, 5000, 8, func(w, i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
	}
	if n := settleGoroutines(t, baseline); n > baseline+2 {
		t.Errorf("goroutines leaked across canceled pools: baseline %d, now %d", baseline, n)
	}
}
