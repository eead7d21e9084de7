package sgbrt

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// cancelAfter is a context that reports itself cancelled from its
// checks-th Err call on, so a fit stops after a known number of trees.
type cancelAfter struct {
	context.Context
	checks atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.checks.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestFitNoGoroutineLeak: the crew a fit starts for its fan-outs is
// stopped before the fit returns, whether it returns a model, the
// cancellation of a fit stopped mid-way, or a binning error.
func TestFitNoGoroutineLeak(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // a crew on any host
	X, y := benchMatrix(936, 229)
	params := Params{Trees: 10, MaxDepth: 4, Subsample: 0.7, Seed: 3, Workers: 2}
	ctx := &cancelAfter{Context: context.Background()}
	bad := append([][]float64{}, X...)
	bad[7] = append([]float64{math.NaN()}, X[7][1:]...)
	cases := []struct {
		name string
		fit  func() error
	}{
		{"normal fit", func() error {
			_, err := FitCtx(context.Background(), X, y, params)
			return err
		}},
		{"fit cancelled after 3 trees", func() error {
			ctx.checks.Store(3)
			if _, err := FitCtx(ctx, X, y, params); !errors.Is(err, context.Canceled) {
				return fmt.Errorf("err = %v, want context.Canceled", err)
			}
			return nil
		}},
		{"fit failing to bin", func() error {
			if _, err := FitCtx(context.Background(), bad, y, params); err == nil {
				return errors.New("fit on NaN input succeeded")
			}
			return nil
		}},
	}
	baseline := settleGoroutines(t, runtime.NumGoroutine())
	for _, tc := range cases {
		// Three fits each, so one leaked helper per fit exceeds the
		// settle slack.
		for range 3 {
			if err := tc.fit(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		if n := settleGoroutines(t, baseline); n > baseline+2 {
			t.Errorf("%s: %d goroutines after the fits returned, baseline %d", tc.name, n, baseline)
		}
	}
}

// TestCrewStartsOnlyForFanOut: a one-worker builder, or one whose
// levels all stay below parallelWork, never starts a crew; the
// production shape and a late EIR round's width at two workers do.
func TestCrewStartsOnlyForFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		rows, features, workers int
		want                    bool
	}{
		{936, 229, 1, false},
		{40, 4, 2, false},
		{936, 229, 2, true},
		{936, 24, 2, true},
	} {
		X, y := benchMatrix(tc.rows, tc.features)
		bm, err := Bin(X, 1)
		if err != nil {
			t.Fatal(err)
		}
		tb := newBuilder(bm, y, TreeParams{MaxDepth: 4, Workers: tc.workers})
		if _, err := tb.build(allIdx(tc.rows * 7 / 10)); err != nil {
			t.Fatal(err)
		}
		if got := tb.crew != nil; got != tc.want {
			t.Errorf("%dx%d at %d workers: crew started = %v, want %v",
				tc.rows, tc.features, tc.workers, got, tc.want)
		}
		tb.close()
	}
}
