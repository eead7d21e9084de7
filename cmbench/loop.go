package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one open-loop request. Times are offsets from the phase
// start: Due is when the schedule said to send it, Start when a sender
// actually sent it, End when the reply was complete.
type Sample struct {
	Due, Start, End time.Duration
	// Sent is false when no sender was free before the request's
	// latency limit had already passed; the request is then skipped
	// and counts as a miss.
	Sent bool
	Err  error
}

// LatencyMs is the request's latency from its due time, +Inf for a
// failed or unsent request (it misses every limit).
func (s Sample) LatencyMs() float64 {
	if !s.Sent || s.Err != nil {
		return math.Inf(1)
	}
	return ms(s.End - s.Due)
}

// LagMs is how late the generator sent the request.
func (s Sample) LagMs() float64 { return ms(s.Start - s.Due) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// OpenLoop sends n requests on a fixed schedule, one every 1/rate
// seconds, through at most `senders` concurrent callers. A request
// whose sender frees up more than `limit` after its due time is not
// sent: it has missed the limit already, and skipping it bounds how
// far an overloaded phase overruns its schedule.
func OpenLoop(ctx context.Context, rate float64, n, senders int, limit time.Duration, do func(ctx context.Context, i int) error) []Sample {
	out := make([]Sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				s := &out[i]
				s.Due = time.Duration(i) * interval
				if wait := s.Due - time.Since(start); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				s.Start = time.Since(start)
				if s.Start-s.Due > limit {
					continue
				}
				s.Sent = true
				s.Err = do(ctx, i)
				s.End = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out
}

// PhaseStats summarizes one open-loop phase.
type PhaseStats struct {
	Rate             float64
	N, Sent, Failed  int
	P50Ms            float64
	TailP, TailMs    float64 // the tail percentile and its latency
	LagP50Ms, LagMax float64
	// LagGrowthMs is the median lag of the phase's last quarter minus
	// that of its first quarter: how much the backlog grew.
	LagGrowthMs float64
	Pass        bool
}

// Summarize applies the latency limit: a phase passes when every
// request was sent and answered, the tail latency is within the limit,
// and the backlog did not grow: the generator's lag at the end of the
// phase exceeds its lag at the start by at most a quarter of the limit.
func Summarize(rate float64, samples []Sample, limitMs float64) PhaseStats {
	st := PhaseStats{Rate: rate, N: len(samples)}
	lat := make([]float64, 0, len(samples))
	var lags []float64
	for _, s := range samples {
		lat = append(lat, s.LatencyMs())
		if s.Sent {
			st.Sent++
			lags = append(lags, s.LagMs())
			if s.LagMs() > st.LagMax {
				st.LagMax = s.LagMs()
			}
			if s.Err != nil {
				st.Failed++
			}
		}
	}
	st.P50Ms = median(lat)
	st.TailP, st.TailMs = tail(lat)
	st.LagP50Ms = median(lags)
	if q := len(lags) / 4; q > 0 {
		st.LagGrowthMs = median(lags[len(lags)-q:]) - median(lags[:q])
	}
	st.Pass = st.N > 0 && st.Sent == st.N && st.Failed == 0 && st.TailMs <= limitMs && st.LagGrowthMs <= limitMs/4
	return st
}
