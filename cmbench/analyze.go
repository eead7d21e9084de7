package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	cm "counterminer"
	"counterminer/internal/sim"
)

// The analyze-default workload: one in-process caller runs full
// default analyses back to back (a closed loop), rotating over a
// seed-shuffled list that alternates HiBench and CloudSuite
// benchmarks, and persists them to a fresh sharded store.

const (
	setupReps = 3
	// errorSample is how many leading analyses model_error_pct is the
	// median of: enough to always finish inside a run, so the value
	// depends only on the seed.
	errorSample = 3
)

// rotation returns every benchmark once, suites alternating, in a
// seed-chosen order.
func rotation(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	names := func(s sim.Suite) []string {
		var out []string
		for _, p := range sim.ProfilesBySuite(s) {
			out = append(out, p.Name)
		}
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	a, b := names(sim.HiBench), names(sim.CloudSuite)
	if rng.Intn(2) == 1 {
		a, b = b, a
	}
	var out []string
	for i := range a {
		out = append(out, a[i], b[i])
	}
	return out
}

func runAnalyzeDefault(ctx context.Context, cfg config, rep *report) error {
	benches := rotation(cfg.seed)
	rep.notef("rotation: %v", benches)

	// Set-up: a fresh store, a pipeline at default options, and its
	// collector's trace generators built for every benchmark (the
	// Collect → Fingerprint path builds them without analysing), so
	// the timed analyses measure steady-state work and a slower build
	// shows in setup_s.
	var p *cm.Pipeline
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		dir, err := os.MkdirTemp(cfg.work, "store-")
		if err != nil {
			return err
		}
		if p, err = cm.NewPipeline(cm.Options{StorePath: dir}); err != nil {
			return err
		}
		for _, b := range benches {
			if _, err := p.FingerprintContext(ctx, b, ""); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var rp *replayer
	var tr *Tracer
	if cfg.trace {
		tr = NewTracer()
		var err error
		if rp, err = newReplayer(filepath.Join(cfg.work, "replay-store"), tr); err != nil {
			return err
		}
	}

	var (
		lat, errs           []float64
		stages              = make(map[string][]time.Duration)
		mem                 memDelta
		tm                  traceMetrics
		outliers, missing   []float64
		seconds             = time.Duration(cfg.seconds) * time.Second
		start               = time.Now()
		mismatches, replays int
	)
	for i := 0; i == 0 || time.Since(start) < seconds; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := benches[i%len(benches)]
		rep.attempted++
		if cfg.trace {
			mem.begin()
		}
		t0 := time.Now()
		a, err := p.AnalyzeContext(ctx, b)
		d := time.Since(t0)
		if err != nil {
			rep.failed++
			rep.notef("analysis %d (%s) failed: %v", i, b, err)
			continue
		}
		if cfg.trace {
			mem.end()
		}
		rep.check(checkImportance(a))
		if a.Benchmark != b || a.Degradation.Degraded() {
			rep.check(fmt.Errorf("analysis of %s came back as %s, degraded=%v", b, a.Benchmark, a.Degradation.Degraded()))
		}
		lat = append(lat, d.Seconds())
		if len(errs) < errorSample {
			errs = append(errs, a.ModelError)
		}
		outliers = append(outliers, float64(a.OutliersReplaced))
		missing = append(missing, float64(a.MissingFilled))
		for _, s := range a.Stages {
			stages[s.Stage] = append(stages[s.Stage], s.Duration)
		}
		rep.notef("analysis %d %-17s %7.3fs  model error %.2f%%  %s", i, b, d.Seconds(), a.ModelError, a.StageReport())

		if cfg.trace {
			replays++
			t1 := time.Now()
			ra, rc, err := rp.analyze(ctx, b, cm.Options{}, i)
			rd := time.Since(t1)
			if err == nil {
				err = checkSameAnalysis("replay", ra, a)
			}
			if err != nil {
				mismatches++
				rep.notef("replay %d: %v", i, err)
			}
			tm.add(tr.Spans(), i, rc, rd, d)
		}
	}

	if !cfg.trace {
		rep.set("setup_s", median(setups))
		rep.set("analysis_p50_s", median(lat))
		rep.set("model_error_pct", median(errs))
		rss, err := peakRSSMiB(os.Getpid())
		if err != nil {
			return err
		}
		rep.set("peak_rss_mib", rss)
		latMs := make([]float64, len(lat))
		sum := 0.0
		for i, v := range lat {
			latMs[i] = v * 1000
			sum += v
		}
		rep.set("latency_p50_ms", median(latMs))
		p, v := tail(latMs)
		rep.set("latency_tail_ms", v)
		rep.notef("%d analyses; latency tail is p%v (fewer than %d samples beyond any lower percentile when p100)", len(lat), p, 10)
		// One closed-loop caller sustains one analysis per latency.
		rep.set("max_rate_rps", ratio(float64(len(lat)), sum))
		rep.set("success_ratio", ratio(float64(rep.attempted-rep.failed), float64(rep.attempted)))
		return nil
	}

	tm.report(rep)
	rep.set("trace.replay_mismatch", float64(mismatches))
	for _, s := range cm.StageNames() {
		rep.set("pipeline.stage."+s+"_ms", medianDur(stages[s]))
	}
	rep.set("pipeline.alloc_mib", median(mem.allocs))
	rep.set("pipeline.gc_cycles", median(mem.gcs))
	rep.set("clean.outliers_replaced", median(outliers))
	rep.set("clean.missing_filled", median(missing))
	builds, hits := rp.col.MemoStats()
	rep.set("collector.builds", float64(builds))
	rep.set("collector.memo_hit_ratio", ratio(float64(hits), float64(hits+builds)))
	distinct := map[string]bool{}
	for i := 0; i < replays; i++ {
		distinct[benches[i%len(benches)]] = true
	}
	rep.check(checkBuilds(builds, len(distinct)))
	st := rp.db.ShardStats()
	rep.set("store.bytes_on_disk", dirBytes(filepath.Join(cfg.work, "replay-store")))
	rep.set("store.writeback_flushes", float64(st.WritebackFlushes))
	rep.set("store.shard_loads", float64(st.Loads))
	// The serving layers are bypassed by this workload.
	for _, n := range []string{
		"fingerprint.classify_ms", "fingerprint.classify_cache_hit_ratio",
		"serve.queue_wait_ms", "serve.exec_ms", "client.transport_ms", "serve.cache_hit_ratio",
		"serve.singleflight_shared", "serve.rejected", "daemon.cpu_ms_per_request",
		"batch.sync_ms", "batch.dedup_ratio", "batch.groups",
		"stream.first_event_ms", "stream.done_ms", "stream.ring_rebuilds", "stream.events_sent",
		"loop.lag_p50_ms", "loop.lag_max_ms",
	} {
		rep.set(n, 0)
	}
	return writeTrace(cfg, tr, rep)
}

// traceMetrics aggregates the replayed analyses' per-module times.
type traceMetrics struct {
	eir, eirRounds, fits, msPerTree            []float64
	collect, clean, fit, pairs, embed, put, fl []float64
	overhead                                   []float64
	self                                       map[string][]float64
}

// add folds in the spans of replayed request req; rd is the replay's
// wall time and ref the untraced pipeline's on the same input.
func (tm *traceMetrics) add(spans []Span, req int, rc replayCounts, rd, ref time.Duration) {
	lt := layerTimes(spans, req)
	get := func(name string) float64 { return ms(lt[name]) }
	eir := get("rank.EIRCtx") + get("rank.FitCtx")
	tm.eir = append(tm.eir, eir)
	tm.eirRounds = append(tm.eirRounds, float64(rc.eirRounds))
	tm.fits = append(tm.fits, float64(rc.treeFits))
	tm.msPerTree = append(tm.msPerTree, ratio(eir+get("interact.fit"), float64(rc.treeFits)))
	tm.collect = append(tm.collect, get("collector.Collect"))
	tm.clean = append(tm.clean, get("clean.Clean")+get("clean.ValidateSeries"))
	tm.fit = append(tm.fit, get("interact.fit"))
	tm.pairs = append(tm.pairs, get("interact.RankPairsCtx"))
	tm.embed = append(tm.embed, get("fingerprint.Embed"))
	tm.put = append(tm.put, get("store.Put"))
	tm.fl = append(tm.fl, get("store.Flush"))
	tm.overhead = append(tm.overhead, 100*(rd.Seconds()-ref.Seconds())/ref.Seconds())
	var mine []Span
	for _, s := range spans {
		if s.Req == req {
			mine = append(mine, s)
		}
	}
	if tm.self == nil {
		tm.self = make(map[string][]float64)
	}
	self := SelfTimes(mine)
	for _, l := range traceLayers {
		if l != "client" {
			tm.self[l] = append(tm.self[l], ms(self[l]))
		}
	}
}

func (tm *traceMetrics) report(rep *report) {
	rep.set("rank.eir_ms", median(tm.eir))
	rep.set("rank.eir_rounds", median(tm.eirRounds))
	rep.set("sgbrt.tree_fits", median(tm.fits))
	rep.set("sgbrt.ms_per_tree", median(tm.msPerTree))
	rep.set("collector.collect_ms", median(tm.collect))
	rep.set("clean.clean_ms", median(tm.clean))
	rep.set("interact.fit_ms", median(tm.fit))
	rep.set("interact.rank_pairs_ms", median(tm.pairs))
	rep.set("fingerprint.embed_ms", median(tm.embed))
	rep.set("store.put_ms", median(tm.put))
	rep.set("store.flush_ms", median(tm.fl))
	rep.set("trace.overhead_pct", median(tm.overhead))
	for _, l := range traceLayers {
		if l != "client" {
			rep.set("trace.self."+l+"_ms", median(tm.self[l]))
		}
	}
}

// writeTrace writes the run's spans next to the run's scratch files
// and reports the client layer's self time when the workload has one.
func writeTrace(cfg config, tr *Tracer, rep *report) error {
	if _, ok := rep.values["trace.self.client_ms"]; !ok {
		rep.set("trace.self.client_ms", 0)
	}
	path := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	rep.notef("%d spans written to %s", len(tr.Spans()), path)
	return nil
}
