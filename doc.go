// Package counterminer reproduces "CounterMiner: Mining Big Performance
// Data from Hardware Counters" (Lv et al., MICRO 2018) as a Go library.
//
// CounterMiner is a methodology for extracting value from the large,
// error-laden data sets that hardware performance counters produce when
// many microarchitecture events are multiplexed onto few counters. The
// library implements the full pipeline:
//
//   - a data collector sampling event time series in OCOE
//     (one-counter-one-event) or MLPX (multiplexed) mode;
//   - a data cleaner that replaces outliers (mean + 5·std threshold,
//     histogram-bin-median replacement) and fills missing values (KNN
//     regression, k = 5) after sampling;
//   - an importance ranker modelling IPC with stochastic gradient
//     boosted regression trees and quantifying per-event importance by
//     relative influence, refined by iteratively pruning the least
//     important events (EIR) until the most accurate performance model
//     (MAPM) is found;
//   - an interaction ranker scoring event pairs by the non-additive
//     part of the performance model's response over each pair (a
//     two-way ANOVA interaction sum of squares; see DESIGN.md §2).
//
// Because this build is hardware-free, the paper's 4-node Haswell-E
// cluster, Linux perf, and the CloudSuite/HiBench benchmarks are
// replaced by a deterministic simulation (internal/sim) with a known
// ground truth; see DESIGN.md for the substitution table. The pipeline
// above the collector is simulation-agnostic.
//
// The entry point is the Pipeline type. The API is context-first:
// every stage observes ctx within one unit of work, cancellation
// surfaces as a typed *CancelError naming the stage, and completed
// analyses carry per-stage wall times in Analysis.Stages:
//
//	p, err := counterminer.NewPipeline(counterminer.Options{})
//	a, err := p.AnalyzeContext(ctx, "wordcount")
//	for _, e := range a.TopEvents(10) { fmt.Println(e.Abbrev, e.Importance) }
//
// (The context-free Analyze and friends still work; they are plain
// context.Background() wrappers.)
//
// For serving analyses over HTTP — with admission control, a
// content-addressed result cache, batch scheduling, and a metrics
// surface — see internal/serve and the counterminerd command. The
// typed Go client for that service is pkg/client; a whole benchmark
// sweep goes in one round-trip through the batch endpoint, which
// dedups exact duplicates and groups the rest for cache reuse:
//
//	c := client.New("http://127.0.0.1:7070")
//	batch, err := c.AnalyzeBatch(ctx, []client.AnalyzeRequest{
//		{Benchmark: "wordcount"}, {Benchmark: "sort"}, {Benchmark: "wordcount"},
//	})
//	for _, job := range batch.Jobs { // request order, one entry per job
//		if job.Error != nil { /* typed per-job error */ }
//	}
package counterminer
