package main

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

func msd(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestLatencyCountsFromDueTime(t *testing.T) {
	// Due at 100ms, sent 40ms late, answered 10ms later: the latency
	// includes the generator's lateness.
	s := Sample{Due: msd(100), Start: msd(140), End: msd(150), Sent: true}
	if s.LatencyMs() != 50 || s.LagMs() != 40 {
		t.Errorf("latency %v lag %v, want 50 and 40", s.LatencyMs(), s.LagMs())
	}
	if !math.IsInf(Sample{Sent: false}.LatencyMs(), 1) {
		t.Error("an unsent request must miss every limit")
	}
	if !math.IsInf(Sample{Sent: true, Err: errors.New("429")}.LatencyMs(), 1) {
		t.Error("a failed request must miss every limit")
	}
}

func TestSummarizeDetectsGrowingBacklog(t *testing.T) {
	steady := make([]Sample, 40)
	growing := make([]Sample, 40)
	for i := range steady {
		due := msd(float64(10 * i))
		steady[i] = Sample{Due: due, Start: due + msd(1), End: due + msd(20), Sent: true}
		// Each request starts 8ms later than the one before: the
		// backlog grows by 8ms per request, 312ms over the phase.
		lag := msd(float64(8 * i))
		growing[i] = Sample{Due: due, Start: due + lag, End: due + lag + msd(20), Sent: true}
	}
	if st := Summarize(100, steady, 500); !st.Pass || st.LagP50Ms != 1 {
		t.Errorf("steady phase: %+v", st)
	}
	st := Summarize(100, growing, 500)
	if st.Pass {
		t.Errorf("a growing backlog passed: %+v", st)
	}
	if st.TailMs > 500 {
		t.Errorf("tail %v: the backlog rule, not the latency limit, should fail this phase", st.TailMs)
	}
	unsent := append([]Sample(nil), steady...)
	unsent[3].Sent = false
	if st := Summarize(100, unsent, 500); st.Pass || st.Sent != 39 {
		t.Errorf("a phase with an unsent request: %+v", st)
	}
}

func TestOpenLoopSendsOnScheduleAndRecordsLag(t *testing.T) {
	// One sender, a request due every 10ms, each taking 25ms: request i
	// cannot start before 25ms*i, so its lag grows by ~15ms per request.
	samples := OpenLoop(context.Background(), 100, 5, 1, time.Second, func(context.Context, int) error {
		time.Sleep(25 * time.Millisecond)
		return nil
	})
	for i, s := range samples {
		if !s.Sent || s.Due != msd(float64(10*i)) {
			t.Fatalf("sample %d: %+v", i, s)
		}
		wantLag := float64(15 * i)
		if s.LagMs() < wantLag-1 || s.LagMs() > wantLag+20 {
			t.Errorf("sample %d: lag %.1fms, want about %.0fms", i, s.LagMs(), wantLag)
		}
		if s.LatencyMs() < s.LagMs()+25 {
			t.Errorf("sample %d: latency %.1fms shorter than lag plus service", i, s.LatencyMs())
		}
	}
	// With a 30ms limit, requests that could not start within 30ms of
	// their due time are skipped, not sent late.
	samples = OpenLoop(context.Background(), 100, 6, 1, 30*time.Millisecond, func(context.Context, int) error {
		time.Sleep(25 * time.Millisecond)
		return nil
	})
	skipped := 0
	for _, s := range samples {
		if !s.Sent {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no request was skipped past its limit")
	}
}
