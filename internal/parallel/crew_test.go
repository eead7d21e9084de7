package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// runOnce runs one Run of n items on the crew and fails unless every
// item ran exactly once.
func runOnce(t *testing.T, c *Crew, n int) {
	t.Helper()
	counts := make([]atomic.Int32, n)
	c.Run(n, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("workers=%d n=%d: item %d ran %d times, want 1", c.Workers(), n, i, got)
		}
	}
}

// waitParked waits until every helper of c has parked, which it does
// spinBudget after its last task.
func waitParked(c *Crew) {
	for i := range c.helpers {
		for !c.helpers[i].parked.Load() {
			runtime.Gosched()
		}
	}
}

// TestCrewRunsEveryItemOnce: each Run calls every item index exactly
// once, for fewer, as many and more items than workers, whether its
// helpers are still spinning from the last Run or have parked since.
func TestCrewRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		c := NewCrew(workers)
		if c.Workers() != workers {
			t.Fatalf("NewCrew(%d).Workers() = %d", workers, c.Workers())
		}
		for round := 0; round < 200; round++ {
			runOnce(t, c, round%(3*workers+2))
		}
		for round := 0; round < 3; round++ {
			waitParked(c)
			runOnce(t, c, 2*workers)
		}
		c.Close()
	}
}

// TestCrewHelpersShareItems: the helpers take items while the caller
// is busy with its own, whether they were spinning or parked when the
// Run began. Each item waits until every item has started, which only
// a crew that runs them at once can satisfy.
func TestCrewHelpersShareItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers = 4
	c := NewCrew(workers)
	defer c.Close()
	for round := 0; round < 6; round++ {
		if round%2 == 1 {
			waitParked(c)
		}
		var started atomic.Int32
		var stuck atomic.Bool
		deadline := time.Now().Add(10 * time.Second)
		c.Run(workers, func(int) {
			started.Add(1)
			for started.Load() < workers {
				if time.Now().After(deadline) {
					stuck.Store(true)
					return
				}
				runtime.Gosched()
			}
		})
		if stuck.Load() {
			t.Fatalf("round %d: only %d of %d items started together", round, started.Load(), workers)
		}
	}
}

// TestCrewRunSeesCallerWrites: what the caller wrote before Run is
// visible to every item, and every item has finished, its writes
// visible, when Run returns. Items of uneven length on a crew of 8
// mix helpers that are still spinning with helpers that have parked
// or are about to, including one that picks a Run up while spinning,
// finishes and parks again before the Run's wake-up loop reaches it,
// and helpers that arrive after their Run is over.
func TestCrewRunSeesCallerWrites(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const items = 8
	c := NewCrew(8)
	defer c.Close()
	in, out, busy := make([]int, items), make([]int, items), make([]int, items)
	for round := 1; round <= 20000; round++ {
		for i := range in {
			in[i] = round * i
		}
		if round%2000 == 0 {
			waitParked(c)
		}
		c.Run(items, func(i int) {
			for k := (i*7919 + round) % 3000; k > 0; k-- {
				busy[i] ^= k
			}
			out[i] = in[i] + 1
		})
		for i := range out {
			if out[i] != round*i+1 {
				t.Fatalf("round %d: out[%d] = %d, want %d", round, i, out[i], round*i+1)
			}
		}
	}
}

// TestCrewCloseIdempotent: Close may be called more than once, with or
// without a Run before it.
func TestCrewCloseIdempotent(t *testing.T) {
	idle := NewCrew(3)
	idle.Close()
	idle.Close()
	used := NewCrew(3)
	runOnce(t, used, 3)
	used.Close()
	used.Close()
}

// TestCrewNoGoroutineLeak: a crew's helpers are gone after Close,
// whether they were spinning or parked when it came, and a one-worker
// crew starts none.
func TestCrewNoGoroutineLeak(t *testing.T) {
	baseline := settleGoroutines(t, runtime.NumGoroutine())
	for _, parked := range []bool{false, true} {
		c := NewCrew(8)
		runOnce(t, c, 8)
		if parked {
			waitParked(c)
		}
		c.Close()
		if n := settleGoroutines(t, baseline); n > baseline+2 {
			t.Errorf("parked=%v: %d goroutines after Close, baseline %d", parked, n, baseline)
		}
	}
	before := runtime.NumGoroutine()
	c := NewCrew(1)
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("a one-worker crew started %d goroutines", n-before)
	}
	runOnce(t, c, 2)
	c.Close()
}
