// HTTP API: start the counterminerd service in-process, then drive it
// through pkg/client, the typed Go client — one analysis, a whole
// benchmark sweep through the batch endpoint, and the metrics surface.
//
//	go run ./examples/httpapi
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"counterminer/internal/serve"
	"counterminer/pkg/client"
)

func main() {
	// Start the service on an ephemeral port. A deployment would run
	// `counterminerd -addr :7070 -db runs.db` instead; everything below
	// the listener is identical.
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	// The typed client handles JSON, typed errors, and Retry-After-aware
	// retry on 429/503 — no hand-rolled wire structs.
	c := client.New("http://" + ln.Addr().String())

	// What can we analyse?
	catalog, err := c.Benchmarks(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service at %s offers %d benchmarks\n", ln.Addr(), len(catalog.Available))

	// Run one analysis. The same request twice demonstrates the
	// content-addressed result cache: the repeat answers instantly.
	req := client.AnalyzeRequest{
		Benchmark: "wordcount",
		Events:    []string{"ICACHE.*", "L2_RQSTS.*", "BR_INST_RETIRED.*"},
		Runs:      2,
		Trees:     40,
		SkipEIR:   true,
	}
	for i := 0; i < 2; i++ {
		ar, err := c.Analyze(ctx, req)
		if err != nil {
			log.Fatal(err) // a *client.APIError carries status + typed code
		}
		fmt.Printf("analysis %d: cached=%v elapsed=%.0fms model error %.1f%%, top event %s\n",
			i+1, ar.Cached, ar.ElapsedMs, ar.Analysis.ModelError,
			ar.Analysis.TopEvents(1)[0].Event)
	}

	// A whole sweep in one round-trip: the batch endpoint dedups exact
	// duplicates (the wordcount job repeats the cached request above),
	// groups the rest by benchmark for collector reuse, and a bad job
	// comes back as a typed per-job error without failing the batch.
	jobs := []client.AnalyzeRequest{
		req, // cache hit
		{Benchmark: "sort", Runs: 2, Trees: 40, SkipEIR: true, Events: req.Events},
		req,                            // exact duplicate -> deduped
		{Benchmark: "not-a-benchmark"}, // typed per-job error
		{Benchmark: "pagerank", Runs: 2, Trees: 40, SkipEIR: true, Events: req.Events},
	}
	batch, err := c.AnalyzeBatch(ctx, jobs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch: %d jobs -> %d executed, %d cache hits, %d deduped, %d errors, %d groups\n",
		batch.Stats.Submitted, batch.Stats.Executed, batch.Stats.CacheHits,
		batch.Stats.Deduped, batch.Stats.Errors, batch.Stats.Groups)
	for _, jr := range batch.Jobs { // request order, one entry per job
		switch {
		case jr.Error != nil:
			fmt.Printf("  job %d: %s (%s)\n", jr.Index, jr.Error.Error, jr.Error.Message)
		default:
			fmt.Printf("  job %d: %s model error %.1f%% cached=%v deduped=%v\n",
				jr.Index, jr.Analysis.Benchmark, jr.Analysis.ModelError, jr.Cached, jr.Deduped)
		}
	}

	// The metrics surface shows the batch machinery doing its job.
	snap, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics: %d requests, %d analyses executed, %d batch jobs (%d deduped, %d cache hits)\n",
		snap.Requests.Total, snap.Analyses.Completed,
		snap.Batch.Jobs, snap.Batch.Deduped, snap.Batch.CacheHits)

	// Graceful shutdown: in-flight work drains, the store would flush.
	cancel()
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	fmt.Println("service drained cleanly")
}
