package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	cm "counterminer"
	"counterminer/internal/clean"
	"counterminer/internal/collector"
	"counterminer/internal/sim"
	"counterminer/internal/store"
	"counterminer/pkg/client"
)

// The serve workloads drive one counterminerd (standalone, default
// flags plus -db) from this process with an open loop: requests are
// due on a fixed schedule whether or not earlier ones have finished,
// and at most GOMAXPROCS are in flight. Each run sweeps a few fixed
// rates in ascending order, stopping at the first that misses the
// latency limit; the reference rate's phase is the longest and gives
// the latency metrics.

// serveEvents is the event set of every serve-workload request: 21
// events, small enough that one analysis (runs 2, trees 20, EIR on)
// costs about 0.07 s on two cores, so Collect, Clean, Interact, queueing and store
// writes are a large share of it.
var serveEvents = []string{"BR_*", "L2_RQSTS.*", "ICACHE.*", "ITLB_*", "RS_EVENTS.*", "OFFCORE_*"}

const (
	serveRuns  = 2
	serveTrees = 20
	// checkSample is how many served analyses per run are recomputed
	// in-process (off the clock) and compared with the library.
	checkSample = 2
)

// sweep fixes a workload's offered rates and latency limit.
type sweep struct {
	rates   []float64 // ascending, requests (or submissions) per second
	ref     int       // index of the reference rate
	limitMs float64   // tail-latency limit
}

// phaseSeconds splits the run between the phases: the reference phase
// gets 60%, enough samples for a p90 tail at the reference rates, and
// the other rates share the rest.
func (sw sweep) phaseSeconds(total, i int) float64 {
	if i == sw.ref {
		return 0.6 * float64(total)
	}
	return 0.4 * float64(total) / float64(len(sw.rates)-1)
}

// op is one open-loop operation's outcome, filled by the workload.
type op struct {
	clientDur time.Duration
	elapsedMs float64 // server-reported elapsed, when the reply has one
	executed  []*cm.Analysis
	// queueWaitMs is elapsed_ms minus the stage time of the one
	// execution the reply waited for (-1 when not applicable).
	queueWaitMs float64
}

// phaseResult is one rate's samples and operations.
type phaseResult struct {
	stats   PhaseStats
	samples []Sample
	ops     []op
}

// serveRun is the shared harness state of one serve-workload run.
type serveRun struct {
	cfg   config
	rep   *report
	d     *daemon
	tr    *Tracer
	setup []float64
	// The daemon's counters before the reference phase and right after
	// it; per-layer deltas and peak memory cover that phase and the
	// ones before it, whose request counts are fixed.
	before, atRef *client.Snapshot
	cpu0, cpuRef  time.Duration
	rssRef        float64
}

// setupDaemon starts a fresh daemon setupReps times (each on an empty
// store, then prefill) and keeps the last one running.
func (sr *serveRun) setupDaemon(ctx context.Context, prefill []client.AnalyzeRequest) error {
	for i := 0; i < setupReps; i++ {
		db := filepath.Join(sr.cfg.work, fmt.Sprintf("db-%d", i))
		t0 := time.Now()
		d, err := startDaemon(ctx, sr.cfg.daemon, db)
		if err != nil {
			return err
		}
		if err := prefillStore(ctx, d, prefill); err != nil {
			d.stop()
			return fmt.Errorf("prefill: %w", err)
		}
		sr.setup = append(sr.setup, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := d.stop(); err != nil {
				return err
			}
			_ = os.RemoveAll(db)
			continue
		}
		sr.d = d
	}
	var err error
	if sr.before, err = sr.d.c.Metrics(ctx); err != nil {
		return err
	}
	sr.cpu0, err = cpuTime(sr.d.pid())
	return err
}

// prefillStore runs jobs through the daemon as sync batches of
// batchSize (the default admission queue takes 8 waiting jobs), filling
// its store, fingerprint index, result cache and generator memo.
func prefillStore(ctx context.Context, d *daemon, jobs []client.AnalyzeRequest) error {
	for len(jobs) > 0 {
		chunk := jobs[:min(batchSize, len(jobs))]
		jobs = jobs[len(chunk):]
		resp, err := d.c.AnalyzeBatch(ctx, chunk)
		if err != nil {
			return err
		}
		if err := checkBatchOrder(chunk, resp.Jobs); err != nil {
			return err
		}
		for _, j := range resp.Jobs {
			if j.Error != nil {
				return fmt.Errorf("job %d: %s", j.Index, j.Error.Message)
			}
			if err := checkImportance(j.Analysis); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPhases sweeps the rates in ascending order (only the reference
// rate when traced), stopping after the first rate that fails. It
// returns the reference phase and the highest rate that passed.
func (sr *serveRun) runPhases(ctx context.Context, sw sweep, do func(ctx context.Context, phase, i int, o *op) error) (ref *phaseResult, maxRate float64, err error) {
	senders := runtime.GOMAXPROCS(0)
	limit := time.Duration(sw.limitMs * float64(time.Millisecond))
	for pi, rate := range sw.rates {
		if sr.cfg.trace && pi != sw.ref {
			continue
		}
		n := int(rate * sw.phaseSeconds(sr.cfg.seconds, pi))
		pr := &phaseResult{ops: make([]op, n)}
		pr.samples = OpenLoop(ctx, rate, n, senders, limit, func(ctx context.Context, i int) error {
			id := sr.tr.Start("client.request", 0, pi*100000+i)
			defer sr.tr.End(id)
			return do(ctx, pi, i, &pr.ops[i])
		})
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		pr.stats = Summarize(rate, pr.samples, sw.limitMs)
		st := pr.stats
		sr.rep.notef("rate %6.2f/s: %d due, %d sent, %d failed, p50 %.1fms, tail p%v %.1fms, lag p50 %.1fms max %.1fms growth %.1fms, pass=%v",
			rate, st.N, st.Sent, st.Failed, st.P50Ms, st.TailP, st.TailMs, st.LagP50Ms, st.LagMax, st.LagGrowthMs, st.Pass)
		for _, s := range pr.samples {
			if s.Sent {
				sr.rep.attempted++
				if s.Err != nil {
					sr.rep.failed++
					sr.rep.notef("request failed: %v", s.Err)
				}
			}
		}
		if pi == sw.ref {
			ref = pr
			if sr.atRef, err = sr.d.c.Metrics(ctx); err != nil {
				return nil, 0, err
			}
			if sr.cpuRef, err = cpuTime(sr.d.pid()); err != nil {
				return nil, 0, err
			}
			if sr.rssRef, err = peakRSSMiB(sr.d.pid()); err != nil {
				return nil, 0, err
			}
		}
		if !st.Pass {
			break
		}
		maxRate = rate
	}
	if ref == nil {
		return nil, 0, fmt.Errorf("the sweep stopped before the reference rate")
	}
	return ref, maxRate, nil
}

// executed lists the executed analyses of a phase's successful ops.
func executed(pr *phaseResult) []*cm.Analysis {
	var out []*cm.Analysis
	for i, o := range pr.ops {
		if pr.samples[i].Sent && pr.samples[i].Err == nil {
			out = append(out, o.executed...)
		}
	}
	return out
}

func stageSum(a *cm.Analysis) time.Duration {
	var d time.Duration
	for _, s := range a.Stages {
		d += s.Duration
	}
	return d
}

// libraryOptions is what the daemon resolves a serve-workload request
// to, as library options.
func libraryOptions(req client.AnalyzeRequest) (cm.Options, error) {
	events, err := sim.NewCatalogue().Select(req.Events)
	if err != nil {
		return cm.Options{}, err
	}
	return cm.Options{
		Events: events, Runs: req.Runs, Trees: req.Trees, Seed: req.Seed,
		CleanOptions: clean.Options{Cleaner: clean.DefaultCleaner},
	}, nil
}

// verifyAgainstLibrary recomputes served analyses in-process (off the
// clock) and checks they equal the served ones. When traced it also
// replays each through the module calls.
func (sr *serveRun) verifyAgainstLibrary(ctx context.Context, reqs []client.AnalyzeRequest, served []*cm.Analysis, tm *traceMetrics, mem *memDelta) (mismatches int, err error) {
	var rp *replayer
	if sr.cfg.trace {
		if rp, err = newReplayer(filepath.Join(sr.cfg.work, "replay-store"), sr.tr); err != nil {
			return 0, err
		}
	}
	// The library pipelines share one collector and one store, as the
	// daemon's do, so they do the same work as the replay: one generator
	// build per benchmark, and a persist per analysis.
	src := collector.New(sim.NewCatalogue())
	sink, err := store.Open(filepath.Join(sr.cfg.work, "library-store"))
	if err != nil {
		return 0, err
	}
	for i, req := range reqs {
		opts, err := libraryOptions(req)
		if err != nil {
			return 0, err
		}
		opts.Source, opts.Sink = src, sink
		p, err := cm.NewPipeline(opts)
		if err != nil {
			return 0, err
		}
		mem.begin()
		t0 := time.Now()
		lib, err := p.AnalyzeContext(ctx, req.Benchmark)
		d := time.Since(t0)
		mem.end()
		if err != nil {
			return 0, fmt.Errorf("library analysis of %s: %w", req.Benchmark, err)
		}
		sr.rep.check(checkSameAnalysis("served vs library", served[i], lib))
		if rp == nil {
			continue
		}
		id := 1_000_000 + i
		t1 := time.Now()
		ra, rc, rerr := rp.analyze(ctx, req.Benchmark, opts, id)
		rd := time.Since(t1)
		if rerr == nil {
			rerr = checkSameAnalysis("replay", ra, lib)
		}
		if rerr != nil {
			mismatches++
			sr.rep.notef("replay %d: %v", i, rerr)
		}
		tm.add(sr.tr.Spans(), id, rc, rd, d)
	}
	return mismatches, nil
}

// memDelta measures the in-process allocation and GC work of the
// library analyses.
type memDelta struct {
	ms0         runtime.MemStats
	allocs, gcs []float64
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.ms0) }

func (m *memDelta) end() {
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.allocs = append(m.allocs, float64(ms1.TotalAlloc-m.ms0.TotalAlloc)/(1<<20))
	m.gcs = append(m.gcs, float64(ms1.NumGC-m.ms0.NumGC))
}

// finish stops the daemon and reports the metrics every serve
// workload shares.
func (sr *serveRun) finish(ref *phaseResult, maxRate float64) error {
	rep := sr.rep
	if err := sr.d.stop(); err != nil {
		rep.check(fmt.Errorf("daemon shutdown: %v", err))
	}
	ex := executed(ref)
	var execS, errs []float64
	for _, a := range ex {
		execS = append(execS, stageSum(a).Seconds())
		errs = append(errs, a.ModelError)
		rep.check(checkImportance(a))
	}
	if !sr.cfg.trace {
		rep.set("setup_s", median(sr.setup))
		rep.set("analysis_p50_s", median(execS))
		rep.set("model_error_pct", median(errs))
		rep.set("peak_rss_mib", sr.rssRef)
		rep.set("latency_p50_ms", ref.stats.P50Ms)
		rep.set("latency_tail_ms", ref.stats.TailMs)
		rep.notef("reference rate %.2f/s: %d requests, latency tail is p%v; generator lag p50 %.2fms max %.2fms",
			ref.stats.Rate, ref.stats.N, ref.stats.TailP, ref.stats.LagP50Ms, ref.stats.LagMax)
		rep.set("max_rate_rps", maxRate)
		rep.set("success_ratio", ratio(float64(rep.attempted-rep.failed), float64(rep.attempted)))
		return nil
	}

	ops := 0
	var qwait, transport []float64
	for i, o := range ref.ops {
		if !ref.samples[i].Sent || ref.samples[i].Err != nil {
			continue
		}
		ops++
		if o.queueWaitMs >= 0 {
			qwait = append(qwait, o.queueWaitMs)
		}
		if o.elapsedMs > 0 {
			transport = append(transport, ms(o.clientDur)-o.elapsedMs)
		}
	}
	stages := make(map[string][]time.Duration)
	var outliers, missing []float64
	for _, a := range ex {
		for _, s := range a.Stages {
			stages[s.Stage] = append(stages[s.Stage], s.Duration)
		}
		outliers = append(outliers, float64(a.OutliersReplaced))
		missing = append(missing, float64(a.MissingFilled))
	}
	for _, s := range cm.StageNames() {
		rep.set("pipeline.stage."+s+"_ms", medianDur(stages[s]))
	}
	rep.set("serve.exec_ms", 1000*median(execS))
	rep.set("serve.queue_wait_ms", median(qwait))
	rep.set("client.transport_ms", median(transport))
	rep.set("clean.outliers_replaced", median(outliers))
	rep.set("clean.missing_filled", median(missing))
	rep.set("loop.lag_p50_ms", ref.stats.LagP50Ms)
	rep.set("loop.lag_max_ms", ref.stats.LagMax)
	rep.set("daemon.cpu_ms_per_request", ratio(ms(sr.cpuRef-sr.cpu0), float64(ops)))

	before, after := sr.before, sr.atRef
	rq0, rq1 := before.Requests, after.Requests
	b0, b1 := before.Batch, after.Batch
	hits := float64(rq1.CacheHits - rq0.CacheHits + b1.CacheHits - b0.CacheHits)
	lookups := float64(rq1.CacheHits-rq0.CacheHits+rq1.CacheMisses-rq0.CacheMisses+rq1.SingleflightShared-rq0.SingleflightShared) +
		float64(b1.Jobs-b0.Jobs) - float64(b1.Deduped-b0.Deduped)
	rep.set("serve.cache_hit_ratio", ratio(hits, lookups))
	rep.set("serve.singleflight_shared", float64(rq1.SingleflightShared-rq0.SingleflightShared))
	rep.set("serve.rejected", float64(rq1.RejectedQueueFull-rq0.RejectedQueueFull+rq1.RejectedDraining-rq0.RejectedDraining+b1.Rejected-b0.Rejected))
	rep.set("collector.builds", float64(after.Collector.Builds))
	rep.set("collector.memo_hit_ratio", ratio(float64(after.Collector.MemoHits), float64(after.Collector.MemoHits+after.Collector.Builds)))
	if after.Store == nil || before.Store == nil {
		return fmt.Errorf("/metrics has no store section")
	}
	rep.set("store.writeback_flushes", float64(after.Store.WritebackFlushes-before.Store.WritebackFlushes))
	rep.set("store.shard_loads", float64(after.Store.ShardLoads-before.Store.ShardLoads))
	rep.set("store.bytes_on_disk", dirBytes(sr.d.db))
	f0, f1 := before.Fingerprint, after.Fingerprint
	rep.set("fingerprint.classify_ms", ratio(f1.ClassifyLatency.SumMs-f0.ClassifyLatency.SumMs, float64(f1.ClassifyLatency.Count-f0.ClassifyLatency.Count)))
	fh := float64(f1.ClassifyCacheHits - f0.ClassifyCacheHits)
	rep.set("fingerprint.classify_cache_hit_ratio", ratio(fh, fh+float64(f1.ClassifyCacheMisses-f0.ClassifyCacheMisses)))
	rep.set("stream.ring_rebuilds", float64(after.Stream.RingRebuilds-before.Stream.RingRebuilds))
	rep.set("stream.events_sent", float64(after.Stream.EventsSent-before.Stream.EventsSent))
	rep.set("batch.dedup_ratio", ratio(float64(b1.Deduped-b0.Deduped), float64(b1.Jobs-b0.Jobs)))
	rep.notef("batch jobs %d: deduped %d, cache hits %d, executed %d",
		b1.Jobs-b0.Jobs, b1.Deduped-b0.Deduped, b1.CacheHits-b0.CacheHits, b1.Executed-b0.Executed)
	self := SelfTimes(sr.tr.Spans())
	rep.set("trace.self.client_ms", ratio(ms(self["client"]), float64(ops)))
	return nil
}
