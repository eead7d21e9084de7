package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	cm "counterminer"
	"counterminer/internal/sim"
	"counterminer/pkg/client"
)

// Both serve workloads offer a low reference rate (about a third of
// what the daemon sustains on two cores, so the latency metrics see
// light queueing), one rate the daemon should sustain, and one it
// cannot: the reported max rate is the middle one unless capacity
// moves by a large factor.

// serve-distinct: sync POST /analyze, every request a fresh seed, so
// nothing is shared and every request executes and persists.
var distinctSweep = sweep{rates: []float64{6, 12, 24}, ref: 0, limitMs: 500}

// serve-batch: /analyze/batch submissions alternating sync and
// async+SSE, with /classify probes interleaved. Batch jobs come from a
// key pool of one job per benchmark, plus one fresh job per batch.
var batchSweep = sweep{rates: []float64{6, 12, 32}, ref: 0, limitMs: 500}

const (
	batchSize = 8 // jobs per submission; one of them fresh
	// classifyFreshEvery makes every n-th /classify probe a fresh
	// profile; the rest repeat pool profiles.
	classifyFreshEvery = 4
)

func serveRequest(bench string, seed int64) client.AnalyzeRequest {
	return client.AnalyzeRequest{Benchmark: bench, Events: serveEvents, Runs: serveRuns, Trees: serveTrees, Seed: seed}
}

// keyPool is one request per benchmark, with seed-chosen data seeds.
// Both serve workloads prefill the daemon with it during set-up, which
// builds every trace generator and seeds the store and index.
func keyPool(rng *rand.Rand) []client.AnalyzeRequest {
	var pool []client.AnalyzeRequest
	for _, b := range sim.AllBenchmarkNames() {
		pool = append(pool, serveRequest(b, 1+rng.Int63n(1000)))
	}
	return pool
}

// benchmarkCycle returns n benchmark names in which every run of 16
// consecutive names is a seed-shuffled copy of the whole catalogue, so
// each phase offers the same mix of benchmark costs whatever the seed.
func benchmarkCycle(rng *rand.Rand, n int) []string {
	all := sim.AllBenchmarkNames()
	out := make([]string, 0, n+len(all))
	for len(out) < n {
		block := append([]string(nil), all...)
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

func runServeDistinct(ctx context.Context, cfg config, rep *report) error {
	sr := &serveRun{cfg: cfg, rep: rep}
	if cfg.trace {
		sr.tr = NewTracer()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := keyPool(rng)
	if err := sr.setupDaemon(ctx, pool); err != nil {
		return err
	}
	defer sr.d.stop()

	// Requests per phase, generated up front. Seeds are unique across
	// the run and disjoint from the pool's, so no request shares a
	// content address with another.
	reqs := make([][]client.AnalyzeRequest, len(distinctSweep.rates))
	served := make([][]*cm.Analysis, len(reqs))
	next := cfg.seed * 1_000_000
	for pi, rate := range distinctSweep.rates {
		n := int(rate * distinctSweep.phaseSeconds(cfg.seconds, pi))
		benches := benchmarkCycle(rng, n)
		for i := 0; i < n; i++ {
			next++
			reqs[pi] = append(reqs[pi], serveRequest(benches[i], next))
		}
		served[pi] = make([]*cm.Analysis, n)
	}

	ref, maxRate, err := sr.runPhases(ctx, distinctSweep, func(ctx context.Context, pi, i int, o *op) error {
		req := reqs[pi][i]
		o.queueWaitMs = -1
		t0 := time.Now()
		resp, err := sr.d.c.Analyze(ctx, req)
		o.clientDur = time.Since(t0)
		if err != nil {
			return err
		}
		if resp.Analysis == nil || resp.Analysis.Benchmark != req.Benchmark {
			return fmt.Errorf("analyze %s: the reply is not its analysis", req.Benchmark)
		}
		o.elapsedMs = resp.ElapsedMs
		served[pi][i] = resp.Analysis
		if !resp.Cached && !resp.Shared {
			o.executed = []*cm.Analysis{resp.Analysis}
			o.queueWaitMs = resp.ElapsedMs - ms(stageSum(resp.Analysis))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Off the clock: a seed-chosen sample of the reference phase's
	// served analyses must equal the library's.
	var sample []client.AnalyzeRequest
	var sampleServed []*cm.Analysis
	for _, i := range rng.Perm(len(reqs[distinctSweep.ref])) {
		if a := served[distinctSweep.ref][i]; a != nil {
			sample = append(sample, reqs[distinctSweep.ref][i])
			sampleServed = append(sampleServed, a)
			if len(sample) == checkSample {
				break
			}
		}
	}
	return sr.verifyAndFinish(ctx, ref, maxRate, len(pool), sample, sampleServed, func() {
		for _, n := range []string{"batch.sync_ms", "batch.groups", "stream.first_event_ms", "stream.done_ms"} {
			rep.set(n, 0)
		}
	})
}

func runServeBatch(ctx context.Context, cfg config, rep *report) error {
	sr := &serveRun{cfg: cfg, rep: rep}
	if cfg.trace {
		sr.tr = NewTracer()
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := keyPool(rng)
	if err := sr.setupDaemon(ctx, pool); err != nil {
		return err
	}
	defer sr.d.stop()

	// Operations per phase, generated up front: i%3 picks a sync batch,
	// an async batch, or a classify probe.
	type planned struct {
		jobs     []client.AnalyzeRequest
		classify client.ClassifyRequest
	}
	plans := make([][]planned, len(batchSweep.rates))
	next := cfg.seed * 1_000_000
	var fresh []client.AnalyzeRequest
	for pi, rate := range batchSweep.rates {
		n := int(rate * batchSweep.phaseSeconds(cfg.seconds, pi))
		freshBenches := benchmarkCycle(rng, n)
		f := 0
		for i := 0; i < n; i++ {
			var p planned
			if i%3 == 2 {
				pj := pool[rng.Intn(len(pool))]
				p.classify = client.ClassifyRequest{Benchmark: pj.Benchmark, Runs: serveRuns, Seed: pj.Seed, TopK: 3}
				if i%(3*classifyFreshEvery) == 2 {
					next++
					p.classify.Seed = next
				}
			} else {
				freshAt := rng.Intn(batchSize)
				for j := 0; j < batchSize; j++ {
					job := pool[rng.Intn(len(pool))]
					if j == freshAt {
						next++
						job = serveRequest(freshBenches[f], next)
						f++
						fresh = append(fresh, job)
					}
					p.jobs = append(p.jobs, job)
				}
			}
			plans[pi] = append(plans[pi], p)
		}
	}
	obs := &batchObs{seen: keyedResults{}, fresh: make(map[int64]*cm.Analysis)}

	ref, maxRate, err := sr.runPhases(ctx, batchSweep, func(ctx context.Context, pi, i int, o *op) error {
		p := plans[pi][i]
		o.queueWaitMs = -1
		t0 := time.Now()
		switch i % 3 {
		case 0:
			resp, err := sr.d.c.AnalyzeBatch(ctx, p.jobs)
			o.clientDur = time.Since(t0)
			if err != nil {
				return err
			}
			o.elapsedMs = resp.ElapsedMs
			if err := checkBatchOrder(p.jobs, resp.Jobs); err != nil {
				return err
			}
			for j, r := range resp.Jobs {
				if err := obs.record(r, p.jobs[j].Seed, o); err != nil {
					return err
				}
			}
			if len(o.executed) == 1 {
				o.queueWaitMs = resp.ElapsedMs - ms(stageSum(o.executed[0]))
			}
			obs.addSync(ms(o.clientDur), resp.Stats.Groups)
		case 1:
			st, err := sr.d.c.AnalyzeBatchStream(ctx, p.jobs)
			if err != nil {
				return err
			}
			defer st.Close()
			results := make([]client.BatchJobResult, len(p.jobs))
			got := make([]bool, len(p.jobs))
			var first time.Duration
			for st.Next() {
				r := st.Result()
				if first == 0 {
					first = time.Since(t0)
				}
				if r.Index < 0 || r.Index >= len(results) || got[r.Index] {
					return fmt.Errorf("stream: unexpected result index %d", r.Index)
				}
				got[r.Index] = true
				results[r.Index] = *r
			}
			o.clientDur = time.Since(t0)
			if err := st.Err(); err != nil {
				return err
			}
			if st.Done() == nil {
				return errors.New("stream ended without a done event")
			}
			if err := checkBatchOrder(p.jobs, results); err != nil {
				return err
			}
			for j, r := range results {
				if err := obs.record(r, p.jobs[j].Seed, o); err != nil {
					return err
				}
			}
			obs.addAsync(ms(first), ms(o.clientDur), st.Done().Stats.Groups)
		default:
			resp, err := sr.d.c.Classify(ctx, p.classify)
			o.clientDur = time.Since(t0)
			if err != nil {
				return err
			}
			if resp.Classification == nil || len(resp.Classification.Matches) == 0 {
				return fmt.Errorf("classify %s: no matches", p.classify.Benchmark)
			}
			o.elapsedMs = resp.ElapsedMs
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Off the clock: a seed-chosen sample of the fresh jobs the daemon
	// executed must equal the library's analyses.
	var sample []client.AnalyzeRequest
	var sampleServed []*cm.Analysis
	for _, i := range rng.Perm(len(fresh)) {
		if a := obs.freshAnalysis(fresh[i].Seed); a != nil {
			sample = append(sample, fresh[i])
			sampleServed = append(sampleServed, a)
			if len(sample) == checkSample {
				break
			}
		}
	}
	if len(sample) == 0 {
		rep.check(errors.New("no fresh batch job was executed"))
	}
	share := func(n int) float64 { return 100 * ratio(float64(n), float64(obs.jobs)) }
	rep.notef("batch jobs: %d returned; %.1f%% in-batch duplicates, %.1f%% cache hits, %.1f%% executed",
		obs.jobs, share(obs.deduped), share(obs.cacheHits), share(obs.freshJobs))
	return sr.verifyAndFinish(ctx, ref, maxRate, len(pool), sample, sampleServed, func() {
		rep.set("batch.sync_ms", median(obs.syncMs))
		rep.set("batch.groups", median(obs.groups))
		rep.set("stream.first_event_ms", median(obs.firstMs))
		rep.set("stream.done_ms", median(obs.doneMs))
	})
}

// verifyAndFinish runs the off-the-clock checks, stops the daemon and
// reports; perLayer adds the workload's own per-layer metrics.
func (sr *serveRun) verifyAndFinish(ctx context.Context, ref *phaseResult, maxRate float64, profiles int, sample []client.AnalyzeRequest, served []*cm.Analysis, perLayer func()) error {
	rep := sr.rep
	var tm traceMetrics
	var mem memDelta
	mism, err := sr.verifyAgainstLibrary(ctx, sample, served, &tm, &mem)
	if err != nil {
		return err
	}
	after, err := sr.d.c.Metrics(ctx)
	if err != nil {
		return err
	}
	rep.check(checkBuilds(after.Collector.Builds, profiles))
	if err := sr.finish(ref, maxRate); err != nil {
		return err
	}
	if !sr.cfg.trace {
		return nil
	}
	tm.report(rep)
	rep.set("trace.replay_mismatch", float64(mism))
	rep.set("pipeline.alloc_mib", median(mem.allocs))
	rep.set("pipeline.gc_cycles", median(mem.gcs))
	perLayer()
	return writeTrace(sr.cfg, sr.tr, rep)
}

// batchObs collects what the serve-batch senders observe.
type batchObs struct {
	mu                                  sync.Mutex
	seen                                keyedResults
	fresh                               map[int64]*cm.Analysis // executed jobs by seed
	jobs, deduped, cacheHits, freshJobs int
	syncMs, firstMs, doneMs, groups     []float64
}

// record checks one job result against every earlier result under its
// content address and keeps executed analyses.
func (b *batchObs) record(r client.BatchJobResult, seed int64, o *op) error {
	if r.Error != nil {
		return fmt.Errorf("batch job %d: %s", r.Index, r.Error.Message)
	}
	if err := checkImportance(r.Analysis); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.seen.add(r.Key, r.Analysis); err != nil {
		return err
	}
	b.jobs++
	switch {
	case r.Deduped:
		b.deduped++
	case r.Cached:
		b.cacheHits++
	}
	if !r.Cached && !r.Deduped {
		o.executed = append(o.executed, r.Analysis)
		b.fresh[seed] = r.Analysis
		b.freshJobs++
	}
	return nil
}

func (b *batchObs) addSync(syncMs float64, groups int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.syncMs = append(b.syncMs, syncMs)
	b.groups = append(b.groups, float64(groups))
}

func (b *batchObs) addAsync(firstMs, doneMs float64, groups int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.firstMs = append(b.firstMs, firstMs)
	b.doneMs = append(b.doneMs, doneMs)
	b.groups = append(b.groups, float64(groups))
}

func (b *batchObs) freshAnalysis(seed int64) *cm.Analysis {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fresh[seed]
}
