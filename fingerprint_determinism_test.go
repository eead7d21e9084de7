package counterminer

import (
	"context"
	"math"
	"testing"
)

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestFingerprintDeterministicAcrossWorkers is the embedding half of
// the pipeline determinism contract: the workload fingerprint of an
// analysis is bit-identical at every worker count, and matches the
// fingerprint-only fast path (FingerprintContext) for the same
// options — the /classify content address depends on it.
func TestFingerprintDeterministicAcrossWorkers(t *testing.T) {
	fingerprintAt := func(workers int) []float64 {
		t.Helper()
		opts := fastOptions(t)
		opts.Workers = workers
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Analyze("wordcount")
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Fingerprint) == 0 {
			t.Fatal("analysis carries no fingerprint")
		}
		return a.Fingerprint
	}

	serial := fingerprintAt(1)
	for _, workers := range []int{2, 8} {
		if got := fingerprintAt(workers); !bitsEqual(got, serial) {
			t.Errorf("fingerprint at workers=%d differs from workers=1", workers)
		}
	}

	p, err := NewPipeline(fastOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := p.FingerprintContext(context.Background(), "wordcount", "")
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(fast, serial) {
		t.Error("FingerprintContext differs from the full analysis fingerprint")
	}
}

// TestFingerprintCleanerInvariant: the fingerprint embeds the RAW
// series, before cleaning, so swapping the cleaner changes nothing —
// not approximately, bit-exactly. A profile indexed by a bayes-cleaning
// daemon classifies identically on a threshold-knn one. The external
// data path holds to the same rule: AnalyzeData leaves its input
// untouched and reports the input's own DataSet.Fingerprint, exactly
// what /classify and cmclassify compute for the same capture.
func TestFingerprintCleanerInvariant(t *testing.T) {
	cases := []struct {
		name    string
		analyze func(t *testing.T, cleaner string) *Analysis
	}{
		{"Pipeline.Analyze", func(t *testing.T, cleaner string) *Analysis {
			opts := fastOptions(t)
			opts.CleanOptions.Cleaner = cleaner
			p, err := NewPipeline(opts)
			if err != nil {
				t.Fatal(err)
			}
			a, err := p.Analyze("sort")
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"AnalyzeData", func(t *testing.T, cleaner string) *Analysis {
			d := syntheticDataSet(400)
			d.X[10][0] = 0     // missing
			d.X[20][1] = 99999 // outlier
			want, err := d.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			before := make([][]float64, len(d.X))
			for i, row := range d.X {
				before[i] = append([]float64(nil), row...)
			}
			opts := Options{Trees: 20, SkipEIR: true, TopK: 4}
			opts.CleanOptions.Cleaner = cleaner
			a, err := AnalyzeData(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if a.OutliersReplaced+a.MissingFilled == 0 {
				t.Fatalf("%s repaired nothing; the planted defects must be cleaned", cleaner)
			}
			for i, row := range d.X {
				if !bitsEqual(row, before[i]) {
					t.Fatalf("AnalyzeData modified input row %d: %v, was %v", i, row, before[i])
				}
			}
			if !bitsEqual(a.Fingerprint, want) {
				t.Error("AnalyzeData fingerprint differs from the input's DataSet.Fingerprint")
			}
			return a
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fingerprintWith := func(cleaner string) []float64 {
				t.Helper()
				a := tc.analyze(t, cleaner)
				if a.Cleaner != cleaner {
					t.Fatalf("analysis ran cleaner %q, want %q", a.Cleaner, cleaner)
				}
				return a.Fingerprint
			}
			knn := fingerprintWith("threshold-knn")
			bayes := fingerprintWith("bayes")
			if !bitsEqual(knn, bayes) {
				t.Error("fingerprint depends on the cleaner; embedding must use raw series")
			}
		})
	}
}
