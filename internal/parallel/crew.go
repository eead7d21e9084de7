package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long a crew worker that is out of work keeps
// polling, yielding with runtime.Gosched, before it blocks: a helper
// that found nothing left to claim before parking on its wake channel,
// and the caller of Run before blocking until the items other workers
// claimed are done. It is sized to the gaps between the fan-outs of an
// SGBRT fit at the Rank stage's shape (936 rows, depth 4, 2 workers on
// a 2-core x86 host): 4–8 µs between the levels of one tree (median),
// and 55–150 µs between the last level of one tree and the first of
// the next (80th to 99th percentile, at 40 and 229 features), so a
// helper parks only once its caller has moved on. BenchmarkFitBinned
// (internal/sgbrt) ran within noise of this value with budgets from
// 20 µs to 1 ms.
const spinBudget = 200 * time.Microsecond

// spinCheck is how many spins pass between reads of the clock.
const spinCheck = 64

// Crew is a fixed set of helper goroutines that share a caller's
// tasks with it, for callers that fan out many short tasks in a row
// (one per SGBRT tree level) where starting goroutines per task would
// cost more than the task. A helper that runs out of work spins for
// spinBudget, yielding to other goroutines, so the next Run is picked
// up without a wake-up; after that it parks until a Run wakes it. Run
// and Close must not be called concurrently.
type Crew struct {
	helpers []crewHelper
	fn      func(i int)
	// claim holds the current Run's number (high 32 bits) and how many
	// of its items are still unclaimed (low 32 bits). Workers claim
	// items by decrementing it, and the Run number makes a helper that
	// arrives after its Run has finished claim nothing of the next.
	claim atomic.Uint64
	// left counts the current Run's items not yet finished.
	left   atomic.Int64
	closed atomic.Bool
	// done receives one token per Run, from the worker that finishes
	// its last item.
	done chan struct{}
	wg   sync.WaitGroup
}

type crewHelper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// NewCrew starts a crew of Workers(workers) workers: the caller of Run
// and Workers()-1 helper goroutines, so one worker starts none.
// Helpers only pay off on idle processors, so callers size a crew to
// at most GOMAXPROCS. The caller must Close the crew.
func NewCrew(workers int) *Crew {
	c := &Crew{
		helpers: make([]crewHelper, Workers(workers)-1),
		done:    make(chan struct{}, 1),
	}
	c.wg.Add(len(c.helpers))
	for i := range c.helpers {
		c.helpers[i].wake = make(chan struct{}, 1)
		go c.help(&c.helpers[i])
	}
	return c
}

// Workers returns the crew's worker count, the caller included.
func (c *Crew) Workers() int { return len(c.helpers) + 1 }

// Run calls fn(i) for every i in [0, n) and returns when every call
// has returned. The caller and the helpers claim items one at a time,
// so a helper that is slow to start, because its processor is busy
// with other goroutines, leaves its share to the caller instead of
// holding the Run up. Run wakes only parked helpers; spinning ones
// pick the items up themselves. n must be below 1<<32.
func (c *Crew) Run(n int, fn func(i int)) {
	if len(c.helpers) == 0 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	c.fn = fn
	c.left.Store(int64(n))
	run := c.claim.Load()>>32 + 1
	c.claim.Store(run<<32 | uint64(n))
	c.wakeParked()
	c.work(run)
	spin(func() bool { return c.left.Load() == 0 })
	<-c.done
}

// Close stops the helpers and returns once they have exited. It is
// idempotent.
func (c *Crew) Close() {
	if !c.closed.Swap(true) {
		c.wakeParked()
	}
	c.wg.Wait()
}

// work claims and runs items of Run number run until none is left
// unclaimed, or that Run is over.
func (c *Crew) work(run uint64) {
	for {
		w := c.claim.Load()
		if w>>32 != run || uint32(w) == 0 {
			return
		}
		if !c.claim.CompareAndSwap(w, w-1) {
			continue
		}
		c.fn(int(uint32(w)) - 1)
		if c.left.Add(-1) == 0 {
			c.done <- struct{}{}
		}
	}
}

// wakeParked wakes every parked helper to look at claim and closed
// again. It wakes a helper only if it clears the helper's parked flag
// itself; a helper that sees news right after parking clears the flag
// instead, so exactly one side does, and no wake token is left
// unconsumed. A helper may still be woken for a Run it has already
// seen: it can pick the Run up while spinning, finish and park again
// before this loop reaches it.
func (c *Crew) wakeParked() {
	for i := range c.helpers {
		h := &c.helpers[i]
		if h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// help is a helper's loop: wait for a new Run and share its items.
func (c *Crew) help(h *crewHelper) {
	defer c.wg.Done()
	var seen uint64
	for {
		run, ok := c.next(h, seen)
		if !ok {
			return
		}
		seen = run
		c.work(run)
	}
}

// next waits for a Run other than seen and returns its number, or
// false once the crew is closed. It spins for spinBudget, then parks
// until wakeParked wakes it, and goes back to waiting after a wake
// that brought no news.
func (c *Crew) next(h *crewHelper, seen uint64) (uint64, bool) {
	news := func() bool { return c.claim.Load()>>32 != seen || c.closed.Load() }
	for !spin(news) {
		h.parked.Store(true)
		if !news() || !h.parked.CompareAndSwap(true, false) {
			<-h.wake
		}
		if news() {
			break
		}
	}
	if c.closed.Load() {
		return 0, false
	}
	return c.claim.Load() >> 32, true
}

// spin polls ready, yielding between polls, until it reports true or
// spinBudget has passed, and returns its last answer.
func spin(ready func() bool) bool {
	start := time.Now()
	for i := 1; !ready(); i++ {
		if i%spinCheck == 0 && time.Since(start) > spinBudget {
			return false
		}
		runtime.Gosched()
	}
	return true
}
