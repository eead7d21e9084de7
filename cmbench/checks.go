package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	cm "counterminer"
	"counterminer/pkg/client"
)

// The output checks. Each returns nil when the output is correct and
// an error naming the first discrepancy otherwise.

// scrubbed encodes an analysis without its wall-clock fields (Stages),
// the only part of an Analysis that legitimately differs between two
// executions of the same request.
func scrubbed(a *cm.Analysis) ([]byte, error) {
	if a == nil {
		return nil, fmt.Errorf("missing analysis")
	}
	c := *a
	c.Stages = nil
	return json.Marshal(&c)
}

// checkSameAnalysis fails unless got equals want with Stages scrubbed.
func checkSameAnalysis(what string, got, want *cm.Analysis) error {
	g, err := scrubbed(got)
	if err != nil {
		return fmt.Errorf("%s: %v", what, err)
	}
	w, err := scrubbed(want)
	if err != nil {
		return fmt.Errorf("%s: reference: %v", what, err)
	}
	if !bytes.Equal(g, w) {
		return fmt.Errorf("%s: analysis of %s differs from the reference", what, want.Benchmark)
	}
	return nil
}

// checkImportance fails unless the ranked importances sum to 100.
func checkImportance(a *cm.Analysis) error {
	if a == nil || len(a.Importance) == 0 {
		return fmt.Errorf("analysis has no importance ranking")
	}
	sum := 0.0
	for _, e := range a.Importance {
		sum += e.Importance
	}
	if math.Abs(sum-100) > 1e-6 {
		return fmt.Errorf("%s: importance sums to %v, want 100", a.Benchmark, sum)
	}
	return nil
}

// checkBatchOrder fails unless a batch's results come back one per job,
// in request order, each for the benchmark its job named.
func checkBatchOrder(jobs []client.AnalyzeRequest, results []client.BatchJobResult) error {
	if len(results) != len(jobs) {
		return fmt.Errorf("batch: %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Index != i {
			return fmt.Errorf("batch: result %d carries index %d", i, r.Index)
		}
		if r.Error != nil {
			continue
		}
		if r.Analysis == nil || r.Analysis.Benchmark != jobs[i].Benchmark {
			return fmt.Errorf("batch: result %d is not an analysis of %s", i, jobs[i].Benchmark)
		}
	}
	return nil
}

// keyedResults remembers the first analysis seen under each content
// address; every later analysis under that key must equal it. This is
// how async stream events are checked against sync results.
type keyedResults map[string][]byte

func (k keyedResults) add(key string, a *cm.Analysis) error {
	b, err := scrubbed(a)
	if err != nil {
		return fmt.Errorf("key %.12s: %v", key, err)
	}
	if prev, ok := k[key]; ok && !bytes.Equal(prev, b) {
		return fmt.Errorf("key %.12s: two different analyses under one content address", key)
	}
	k[key] = b
	return nil
}

// checkBuilds fails unless the collector built exactly one trace
// generator per distinct profile it was asked for.
func checkBuilds(builds uint64, profiles int) error {
	if builds != uint64(profiles) {
		return fmt.Errorf("collector built %d generators for %d distinct profiles", builds, profiles)
	}
	return nil
}
