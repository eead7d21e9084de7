package main

import (
	"testing"
	"time"

	cm "counterminer"
	"counterminer/pkg/client"
)

func sampleAnalysis(bench string) *cm.Analysis {
	return &cm.Analysis{
		Benchmark:  bench,
		Cleaner:    "threshold-knn",
		Events:     3,
		ModelError: 9.5,
		MAPMEvents: 3,
		Importance: []cm.EventScore{
			{Event: "A", Abbrev: "A", Importance: 50},
			{Event: "B", Abbrev: "B", Importance: 30},
			{Event: "C", Abbrev: "C", Importance: 20},
		},
		Fingerprint: []float64{0.1, 0.2},
		Stages:      []cm.StageTiming{{Stage: cm.StageRank, Duration: time.Millisecond}},
	}
}

func TestCheckSameAnalysis(t *testing.T) {
	want := sampleAnalysis("wordcount")
	got := sampleAnalysis("wordcount")
	got.Stages = []cm.StageTiming{{Stage: cm.StageRank, Duration: time.Hour}}
	if err := checkSameAnalysis("t", got, want); err != nil {
		t.Errorf("analyses differing only in Stages: %v", err)
	}
	got.Fingerprint[1] = 0.25
	if err := checkSameAnalysis("t", got, want); err == nil {
		t.Error("a corrupted fingerprint passed")
	}
	got = sampleAnalysis("wordcount")
	got.ModelError = 9.6
	if err := checkSameAnalysis("t", got, want); err == nil {
		t.Error("a corrupted model error passed")
	}
	if err := checkSameAnalysis("t", nil, want); err == nil {
		t.Error("a missing analysis passed")
	}
}

func TestCheckImportance(t *testing.T) {
	a := sampleAnalysis("sort")
	if err := checkImportance(a); err != nil {
		t.Errorf("importance summing to 100: %v", err)
	}
	a.Importance[2].Importance = 21
	if err := checkImportance(a); err == nil {
		t.Error("importance summing to 101 passed")
	}
	if err := checkImportance(&cm.Analysis{Benchmark: "sort"}); err == nil {
		t.Error("an empty ranking passed")
	}
}

func TestCheckBatchOrder(t *testing.T) {
	jobs := []client.AnalyzeRequest{{Benchmark: "sort"}, {Benchmark: "wordcount"}}
	good := []client.BatchJobResult{
		{Index: 0, Analysis: sampleAnalysis("sort")},
		{Index: 1, Analysis: sampleAnalysis("wordcount")},
	}
	if err := checkBatchOrder(jobs, good); err != nil {
		t.Errorf("ordered results: %v", err)
	}
	swapped := []client.BatchJobResult{good[1], good[0]}
	if err := checkBatchOrder(jobs, swapped); err == nil {
		t.Error("results out of request order passed")
	}
	relabeled := []client.BatchJobResult{{Index: 0, Analysis: sampleAnalysis("sort")}, {Index: 1, Analysis: sampleAnalysis("sort")}}
	if err := checkBatchOrder(jobs, relabeled); err == nil {
		t.Error("a result for the wrong benchmark passed")
	}
	if err := checkBatchOrder(jobs, good[:1]); err == nil {
		t.Error("a missing result passed")
	}
}

func TestKeyedResultsRejectsTwoAnswersForOneKey(t *testing.T) {
	k := keyedResults{}
	if err := k.add("key", sampleAnalysis("sort")); err != nil {
		t.Fatal(err)
	}
	same := sampleAnalysis("sort")
	same.Stages = nil
	if err := k.add("key", same); err != nil {
		t.Errorf("the same analysis again (stream vs sync): %v", err)
	}
	other := sampleAnalysis("sort")
	other.Importance[0].Abbrev = "X"
	if err := k.add("key", other); err == nil {
		t.Error("a different analysis under the same key passed")
	}
}

func TestCheckBuilds(t *testing.T) {
	if err := checkBuilds(8, 8); err != nil {
		t.Errorf("one build per profile: %v", err)
	}
	if err := checkBuilds(9, 8); err == nil {
		t.Error("a duplicate generator build passed")
	}
}
