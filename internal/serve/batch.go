package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	counterminer "counterminer"
)

// groupKey is the scheduler's grouping key: the benchmark identity
// (including co-location), the unit of collector memoization. The
// queue's cross-batch scheduler keeps jobs sharing it adjacent, so the
// expensive trace generator is built once and then hit in the memo.
func (j jobSpec) groupKey() string { return j.benchmark + "\x00" + j.colocate }

// specKey is the spec's content address: the canonical request hash,
// prefixed with the job kind so a fingerprint job and the full
// analysis of the same benchmark never share a cache entry.
func specKey(spec jobSpec) string {
	k := Key(spec.benchmark, spec.colocate, spec.events, spec.opts)
	if spec.kind != "" {
		k = spec.kind + ":" + k
	}
	return k
}

// startJob submits one leader job to the admission queue under
// deadline, filed under its benchmark-identity grouping key so the
// cross-batch priority scheduler keeps it adjacent to other work on
// the same benchmark. The job publishes its outcome through the cache,
// waking every waiter (single request, batch entry, or singleflight
// follower). An admission failure completes the call with the typed
// rejection instead, so no waiter hangs, and is returned; on success
// the job's cancel-if-queued function is returned.
func (s *Server) startJob(key string, call *Call[*counterminer.Analysis], spec jobSpec, deadline time.Time) (func(), error) {
	cancel, err := s.queue.Submit(spec.groupKey(), deadline, func(ctx context.Context) {
		start := time.Now()
		a, aerr := s.analyze(ctx, spec)
		if spec.kind == KindFingerprint {
			s.metrics.ObserveEmbed(aerr, time.Since(start))
		} else {
			s.metrics.ObserveAnalysis(a, aerr)
			s.syncFingerprint(spec, aerr)
		}
		s.cache.Complete(key, call, a, aerr)
	})
	if err != nil {
		s.cache.Complete(key, call, nil, err)
	}
	return cancel, err
}

// batchJob is one resolved batch member: the spec, its content
// address, the index of the job that executes on its behalf, and — for
// a leader not served from the LRU — the singleflight call carrying
// its result.
type batchJob struct {
	spec jobSpec
	key  string
	lead int // itself for a leader; the first job with the same key otherwise
	call *Call[*counterminer.Analysis]
}

// plannedBatch is the front half shared by both batch modes: every
// job resolved, invalid ones parked as typed per-job errors, exact
// duplicates aliased to their leader, and the admission-time
// accounting started.
type plannedBatch struct {
	results []BatchJobResult
	states  []*batchJob // nil for an invalid job
	leaders []int       // distinct jobs' indexes, in request order
	stats   BatchStats
}

// planBatch resolves every job independently (a bad job is a typed
// per-job error, never a batch failure) and deduplicates the valid
// ones by content address: the first occurrence of a key leads and
// later ones alias it. Leaders keep request order; the queue's
// scheduler, not the batch, decides when each one runs.
func (s *Server) planBatch(jobs []AnalyzeRequest) plannedBatch {
	pb := plannedBatch{
		results: make([]BatchJobResult, len(jobs)),
		states:  make([]*batchJob, len(jobs)),
		stats:   BatchStats{Submitted: len(jobs)},
	}
	leaderByKey := make(map[string]int, len(jobs))
	groups := make(map[string]struct{})
	for i, jr := range jobs {
		pb.results[i].Index = i
		spec, herr := s.resolve(jr)
		if herr != nil {
			pb.results[i].Error = &ErrorResponse{Error: herr.code, Message: herr.msg}
			continue
		}
		key := specKey(spec)
		pb.results[i].Key = key
		st := &batchJob{spec: spec, key: key, lead: i}
		pb.states[i] = st
		if lead, ok := leaderByKey[key]; ok {
			st.lead = lead
			pb.results[i].Deduped = true
			pb.stats.Deduped++
			continue
		}
		leaderByKey[key] = i
		groups[spec.groupKey()] = struct{}{}
		pb.leaders = append(pb.leaders, i)
	}
	pb.stats.Groups = len(groups)
	pb.stats.ScheduleOrder = append([]int{}, pb.leaders...)
	return pb
}

// dispatchBatch is the one batch execution path behind both modes of
// POST /analyze/batch. Each leader, in request order, is served from
// the LRU, attached to an identical in-flight execution, or submitted
// to the admission queue under the batch-level deadline. It returns
// the batch's accounting (Errors is left for the caller, which sees
// the results) and the cancel-if-queued functions of the jobs it
// submitted.
//
// complete receives every job's result exactly once, from a goroutine
// dispatchBatch starts, never from the caller's: results whose outcome
// is already known (invalid jobs, LRU hits and their duplicates) come
// first in request order, the rest as their leader's execution lands.
// The batch folds into /metrics when its last result is ready, before
// complete sees it, whether or not anyone still waits for it.
func (s *Server) dispatchBatch(pb plannedBatch, deadline time.Time, complete func(BatchJobResult)) (BatchStats, []func()) {
	stats := pb.stats
	var cancels []func()
	for _, idx := range pb.leaders {
		st := pb.states[idx]
		ana, ok, call, leader := s.cache.Acquire(st.key)
		if ok {
			pb.results[idx].Cached = true
			pb.results[idx].Analysis = ana
			stats.CacheHits++
			continue
		}
		st.call = call
		if !leader {
			// An identical request (or another batch) is already
			// executing this key; share its call.
			continue
		}
		if cancel, err := s.startJob(st.key, call, st.spec, deadline); err == nil {
			stats.Executed++
			cancels = append(cancels, cancel)
		}
	}
	go s.deliverBatch(pb, stats, complete)
	return stats, cancels
}

// deliverBatch is dispatchBatch's delivery half; see there.
func (s *Server) deliverBatch(pb plannedBatch, stats BatchStats, complete func(BatchJobResult)) {
	var left, errs atomic.Int64
	left.Store(int64(len(pb.results)))
	deliver := func(res BatchJobResult) {
		if res.Error != nil {
			errs.Add(1)
		}
		if left.Add(-1) == 0 {
			stats.Errors = int(errs.Load())
			s.metrics.ObserveBatch(stats)
		}
		complete(res)
	}
	var pending []int
	for i, st := range pb.states {
		if st != nil && pb.states[st.lead].call != nil {
			pending = append(pending, i)
			continue
		}
		res := pb.results[i]
		if st != nil && st.lead != i {
			lead := pb.results[st.lead]
			res.Cached, res.Analysis = lead.Cached, lead.Analysis
		}
		deliver(res)
	}
	for _, i := range pending {
		go func(i int) {
			call := pb.states[pb.states[i].lead].call
			<-call.Done
			res := pb.results[i]
			if call.Err != nil {
				res.Error = jobError(call.Err)
			} else {
				res.Analysis = call.Val
			}
			deliver(res)
		}(i)
	}
}

// handleAnalyzeBatch is POST /analyze/batch: a whole sweep in one
// round-trip. Jobs are resolved individually (a bad job is a typed
// per-job error, never a batch failure), exact duplicates collapse
// onto one execution, and the rest dispatch through the admission
// queue under one batch-level deadline carved from the server budget.
// Results return as a per-job array in request order with the batch's
// accounting in the envelope.
//
// With ?async=1 the batch becomes a streaming handle instead: the
// response is an immediate 202 with the handle, and per-job results
// flow through GET /batch/{handle}/events (SSE) or poll via
// GET /batch/{handle} as each job completes.
func (s *Server) handleAnalyzeBatch(w http.ResponseWriter, r *http.Request) {
	s.metrics.IncRequest()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST")
		return
	}
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Jobs) == 0 {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "bad_request", "batch needs at least one job")
		return
	}
	if len(req.Jobs) > s.cfg.BatchMax {
		s.metrics.IncBadRequest()
		writeError(w, http.StatusBadRequest, "batch_too_large",
			fmt.Sprintf("batch carries %d jobs, limit is %d (-batch-max)", len(req.Jobs), s.cfg.BatchMax))
		return
	}
	if s.draining.Load() {
		s.metrics.IncBatchRejected()
		writeError(w, http.StatusServiceUnavailable, "draining", ErrDraining.Error())
		return
	}
	if async := r.URL.Query().Get("async"); async != "" && async != "0" && async != "false" {
		s.handleBatchAsync(w, req)
		return
	}

	start := time.Now()
	pb := s.planBatch(req.Jobs)
	results := make([]BatchJobResult, len(req.Jobs))
	var left atomic.Int64
	left.Store(int64(len(results)))
	landed := make(chan struct{})
	stats, _ := s.dispatchBatch(pb, time.Now().Add(s.cfg.Budget), func(res BatchJobResult) {
		results[res.Index] = res
		if left.Add(-1) == 0 {
			close(landed)
		}
	})
	// A disconnected client abandons the wait; executions continue for
	// the cache and other waiters, and the batch still folds into
	// /metrics when its last job lands.
	select {
	case <-landed:
	case <-r.Context().Done():
		return
	}
	for i := range results {
		if results[i].Error != nil {
			stats.Errors++
		}
	}

	// Whole-batch overload mirrors the single-job rejection: when
	// every scheduled job died at admission, the batch answers 429/503
	// with Retry-After instead of a per-job result array.
	if code, all := uniformAdmissionFailure(results, pb.leaders); all {
		s.metrics.IncBatchRejected()
		status := http.StatusTooManyRequests
		if code == "draining" {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, code,
			fmt.Sprintf("all %d scheduled jobs rejected at admission", len(pb.leaders)))
		return
	}

	writeJSON(w, http.StatusOK, BatchResponse{
		Jobs:      results,
		Stats:     stats,
		ElapsedMs: msSince(start),
	})
}

// jobError maps an analysis or admission error onto the typed per-job
// entry, carrying the same retry hint a single-job rejection would.
func jobError(err error) *ErrorResponse {
	status, code := ErrorStatus(err)
	er := &ErrorResponse{Error: code, Message: err.Error()}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		er.RetryAfterSeconds = 1
	}
	return er
}

// uniformAdmissionFailure reports whether every scheduled job failed
// with the same admission rejection ("queue_full" or "draining"), and
// which one.
func uniformAdmissionFailure(results []BatchJobResult, order []int) (string, bool) {
	if len(order) == 0 {
		return "", false
	}
	code := ""
	for _, idx := range order {
		er := results[idx].Error
		if er == nil || (er.Error != "queue_full" && er.Error != "draining") {
			return "", false
		}
		if code == "" {
			code = er.Error
		} else if code != er.Error {
			return "", false
		}
	}
	return code, true
}
